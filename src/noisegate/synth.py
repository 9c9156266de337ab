"""Synthetic rating data drawn from a planted matrix-factorization model.

Every rating is the planted model's prediction snapped to the rating grid,
so the data is noise-free by construction: whatever a detector flags on top
of an injected perturbation set is a false positive.  The generator emits
the same schema the loaders ingest, which keeps the synthetic path and the
real-data path identical downstream.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dataset import GenreMap, RatingsTable, Scale

GENRE_VOCABULARY = (
    "Action", "Adventure", "Animation", "Children", "Comedy", "Crime",
    "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
    "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
)

_EPOCH_DAY = 19000  # fixed origin day for synthetic timestamps


def _snap_to_grid(values: np.ndarray, scale: Scale) -> np.ndarray:
    snapped = np.round(values * 2.0) / 2.0
    return np.clip(snapped, scale.r_min, scale.r_max)


def planted_tables(
    users: int = 500,
    items: int = 800,
    factors: int = 8,
    seed: int = 0,
    ratings_per_user: tuple[int, int] = (60, 120),
    scale: Scale = Scale(),
    active_days: int = 180,
    genreless_share: float = 0.02,
) -> tuple[RatingsTable, GenreMap]:
    """Generate a ratings table plus genre map from a planted MF model.

    Per-user rating counts are uniform on the given inclusive range; item
    choices, timestamps, and genre assignments are all driven by the one
    seed, so the output is a pure function of the arguments.
    """
    if users < 1 or items < 1:
        raise ValueError("users and items must be positive")
    lo, hi = ratings_per_user
    if not 1 <= lo <= hi <= items:
        raise ValueError(f"ratings_per_user range {ratings_per_user} invalid for {items} items")
    rng = np.random.default_rng([seed, 71])
    P = rng.normal(0.0, 0.4, size=(users, factors))
    Q = rng.normal(0.0, 0.4, size=(items, factors))
    bu = rng.normal(0.0, 0.25, size=users)
    bi = rng.normal(0.0, 0.25, size=items)
    mu = 0.5 * (scale.r_min + scale.r_max) + 0.3

    columns = []
    base_ts = _EPOCH_DAY * 86400
    for u in range(users):
        count = int(rng.integers(lo, hi + 1))
        chosen = rng.permutation(items)[:count]
        raw = mu + bu[u] + bi[chosen] + Q[chosen] @ P[u]
        days = rng.integers(0, active_days, size=count)
        secs = rng.integers(0, 86400, size=count)
        stamps = base_ts + days * 86400 + secs
        columns.append((np.full(count, u + 1), chosen + 1, _snap_to_grid(raw, scale), stamps))

    width = len(GENRE_VOCABULARY)
    matrix = np.zeros((items, width))
    for it in range(items):
        if rng.random() >= genreless_share:
            n_g = int(rng.integers(1, 4))
            matrix[it, rng.choice(width, size=n_g, replace=False)] = 1.0
    genres = GenreMap(np.arange(1, items + 1), matrix, GENRE_VOCABULARY)
    return RatingsTable(*(np.concatenate(col) for col in zip(*columns)), scale), genres


def movielens_sized_tables(seed: int = 0) -> tuple[RatingsTable, GenreMap]:
    """A ~100K-rating dataset with the usual small-benchmark shape:
    610 users, 1500 items, skewed per-user activity."""
    return planted_tables(
        users=610,
        items=1500,
        factors=8,
        seed=seed,
        ratings_per_user=(60, 260),
    )


def write_dataset_csvs(table: RatingsTable, genres: GenreMap, out_dir: str | Path) -> None:
    """Write ratings.csv and movies.csv in the standard loader schema."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table.to_csv(out / "ratings.csv")
    lines = ["movieId,title,genres"]
    for item, vec in zip(genres.item_ids.tolist(), genres.matrix):
        names = [genres.vocabulary[k] for k in np.flatnonzero(vec)]
        tag = "|".join(names) if names else "(no genres listed)"
        lines.append(f"{item},Item {item} (2001),{tag}")
    (out / "movies.csv").write_text("\n".join(lines) + "\n")
