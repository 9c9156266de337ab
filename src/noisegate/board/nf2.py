"""User-centered detector.

Users are grouped by how much they rate (population terciles) and how
coherent their ratings are within genres.  For the groups worth processing,
a rating's noisy degree is the share of the item's genres on which the
rating deviates relatively from the user's own genre means.
"""

from __future__ import annotations

import logging
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ..dataset import GenreMap, RatingsTable, segment_means, sorted_index
from .verdict import Verdict, verdict_map

logger = logging.getLogger("noisegate.board.nf2")

DEFAULT_THETA_HEAVY_MEDIUM = 0.075
DEFAULT_THETA_LIGHT = 0.05
DEFAULT_RND_CUT = 0.5
DEFAULT_COHERENCE_CUT = 0.8
_EPS = 1e-9


class Quantity(Enum):
    HEAVY = "heavy"
    MEDIUM = "medium"
    LIGHT = "light"


class Quality(Enum):
    EASY = "easy"
    DIFFICULT = "difficult"


class Nf2Group(NamedTuple):
    quantity: Quantity
    quality: Quality


# group codes: quantity 0 heavy, 1 medium, 2 light; quality 0 difficult, 1 easy
_QUANTITIES = (Quantity.HEAVY, Quantity.MEDIUM, Quantity.LIGHT)
_GROUPS = tuple(
    (Nf2Group(q, Quality.DIFFICULT), Nf2Group(q, Quality.EASY)) for q in _QUANTITIES
)


def _genre_pairs(table: RatingsTable, genres: GenreMap) -> tuple[np.ndarray, np.ndarray]:
    """(row, genre) index pairs for the genres of each row's item, by row then genre."""
    item_ids, inv = np.unique(table.items, return_inverse=True)
    member = np.zeros((len(item_ids), genres.n_genres), dtype=bool)
    for k, item in enumerate(item_ids.tolist()):
        member[k] = genres.vector(item) != 0
    return np.nonzero(member[inv])


def _genre_sums(
    table: RatingsTable, rows: np.ndarray, genres: np.ndarray, n_genres: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted user ids, and per (user, genre) the sum and count of the
    ratings over the (row, genre) pairs, with one more all-zero user row for
    users the table lacks.  On the rating grid the sums are exact in any order."""
    users, inv = np.unique(table.users, return_inverse=True)
    shape = (len(users) + 1, n_genres)
    flat = inv[rows] * n_genres + genres
    size = shape[0] * shape[1]
    sums = np.bincount(flat, weights=table.values[rows], minlength=size).reshape(shape)
    return users, sums, np.bincount(flat, minlength=size).reshape(shape)


def _coherence(table: RatingsTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted user ids with their coherence and whether they rated any item with genres.

    Coherence is 1 - the mean normalized within-genre deviation: for each
    rated item with at least one genre, the mean over the item's genres g of
    |r - m_g| / span, where m_g is the user's mean rating over items carrying
    g.  Items without genres are skipped; a user with only genre-less items
    gets coherence 1.0.
    """
    if table.genres is None:
        raise ValueError("genre vectors unavailable")
    rows, genres = _genre_pairs(table, table.genres)
    users, sums, counts = _genre_sums(table, rows, genres, table.genres.n_genres)
    user = sorted_index(users, table.users[rows])
    abs_dev = np.abs(table.values[rows] - sums[user, genres] / counts[user, genres])
    rated, starts, lengths = np.unique(rows, return_index=True, return_counts=True)
    devs = segment_means(abs_dev, starts, lengths) / table.scale.span
    owners, starts, lengths = np.unique(table.users[rated], return_index=True, return_counts=True)
    had = np.isin(users, owners)
    coherence = np.ones(len(users))
    coherence[had] = 1.0 - segment_means(devs, starts, lengths)
    return users, coherence, had


def user_coherence(user: int, table: RatingsTable) -> tuple[float, bool]:
    """(coherence, had_genres) of one user over their rows of the table; see _coherence."""
    rows = table.user_rows(user)
    if len(rows) == 0:
        raise ValueError(f"user {user} not in table")
    _, coherence, had = _coherence(table.subset_rows(rows))
    return float(coherence[0]), bool(had[0])


def group_users(
    table: RatingsTable, coherence_cut: float = DEFAULT_COHERENCE_CUT
) -> dict[int, Nf2Group]:
    """Assign every user a (quantity, quality) group over this table."""
    users, coherence, had = _coherence(table)
    counts = np.unique(table.users, return_counts=True)[1].astype(np.float64)
    q1 = float(np.quantile(counts, 1 / 3))
    q2 = float(np.quantile(counts, 2 / 3))
    quantity = np.where(counts > q2, 0, np.where(counts <= q1, 2, 1))
    for u in users[~had].tolist():
        logger.warning("user %d rated only genre-less items; quality defaults to easy", u)
    easy = ~had | (coherence >= coherence_cut)
    return {
        u: _GROUPS[q][e]
        for u, q, e in zip(users.tolist(), quantity.tolist(), easy.astype(int).tolist())
    }


def nf2_rnd(
    value: float,
    user_genre_means: Mapping[str, float] | Sequence[float],
    theta: float,
) -> float:
    """Share of countable genres with relative deviation >= theta.

    The caller passes means only for genres the user has history on; an
    empty map yields 0 (nothing to judge against).
    """
    if isinstance(user_genre_means, Mapping):
        means = list(user_genre_means.values())
    else:
        means = list(user_genre_means)
    if not means:
        return 0.0
    deviant = sum(1 for m in means if abs(value - m) / max(m, _EPS) >= theta)
    return deviant / len(means)


class Nf2Result(NamedTuple):
    verdicts: dict[tuple[int, int], Verdict]
    groups: dict[int, Nf2Group]
    rnd: dict[tuple[int, int], float]


def nf2_detect(
    test: RatingsTable,
    theta_heavy_medium: float = DEFAULT_THETA_HEAVY_MEDIUM,
    theta_light: float = DEFAULT_THETA_LIGHT,
    rnd_cut: float = DEFAULT_RND_CUT,
    context: RatingsTable | None = None,
    coherence_cut: float = DEFAULT_COHERENCE_CUT,
) -> Nf2Result:
    """Group-aware noisy-degree detector.

    Groups and genre means come from `context` (defaults to the test table).
    Genre means are leave-one-out: the rating under scrutiny is removed from
    its own genre means, and genres the user only knows through this very
    rating are skipped.  Medium-quantity users with easy (coherent) profiles
    are never flagged; everyone else is flagged when RND exceeds rnd_cut.
    """
    ctx = context if context is not None else test
    if ctx.genres is None:
        raise ValueError("genre vectors unavailable")
    groups = group_users(ctx, coherence_cut)
    missing = set(test.users.tolist()) - groups.keys()
    if missing:
        test_groups = group_users(test, coherence_cut)
        groups.update((u, test_groups[u]) for u in sorted(missing))
    test_users, at = np.unique(test.users, return_inverse=True)
    group = [groups[u] for u in test_users.tolist()]
    light = np.array([g.quantity is Quantity.LIGHT for g in group], dtype=bool)[at]
    exempt = np.array([g == (Quantity.MEDIUM, Quality.EASY) for g in group], dtype=bool)[at]
    theta = np.where(light, theta_light, theta_heavy_medium)

    # Leave-one-out genre means over the context: the user's per-genre sums
    # and counts, minus the rating itself when the context holds it.
    ctx_rows, ctx_genres = _genre_pairs(ctx, ctx.genres)
    users, sums, counts = _genre_sums(ctx, ctx_rows, ctx_genres, ctx.genres.n_genres)
    own = ctx.contains(test.users, test.items)
    rows, genres = _genre_pairs(test, ctx.genres)
    user = sorted_index(users, test.users)[rows]
    cnt = counts[user, genres] - own[rows]
    ok = cnt >= 1
    rows, genres, user, cnt = rows[ok], genres[ok], user[ok], cnt[ok]
    value = test.values[rows]
    mean = (sums[user, genres] - np.where(own[rows], value, 0.0)) / cnt
    deviant = np.abs(value - mean) / np.maximum(mean, _EPS) >= theta[rows]
    n_means = np.bincount(rows, minlength=len(test))
    n_deviant = np.bincount(rows[deviant], minlength=len(test))
    rnd = np.zeros(len(test))
    np.divide(n_deviant, n_means, out=rnd, where=n_means > 0)
    keys = test.keys()
    return Nf2Result(
        verdict_map(keys, ~exempt & (rnd > rnd_cut)),
        groups,
        dict(zip(keys, rnd.tolist())),
    )
