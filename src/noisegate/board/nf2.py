"""User-centered detector.

Users are grouped by how much they rate (population terciles) and how
coherent their ratings are within genres.  For the groups worth processing,
a rating's noisy degree is the share of the item's genres on which the
rating deviates relatively from the user's own genre means.  The item
genres come as a GenreMap argument; this is the one detector that reads them.
"""

from __future__ import annotations

import logging
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ..dataset import GenreMap, RatingsTable, context_index, segment_means, sorted_index

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


# A quantity code indexes Quantity's members in order: 0 heavy, 1 medium, 2 light.
_MEDIUM, _LIGHT = 1, 2


def _genre_pairs(table: RatingsTable, genres: GenreMap) -> tuple[np.ndarray, np.ndarray]:
    """(row, genre) index pairs for the genres of each row's item, by row then genre."""
    item_ids, inv = np.unique(table.items, return_inverse=True)
    return np.nonzero((genres.vectors(item_ids) != 0)[inv])


def _genre_sums(
    table: RatingsTable, rows: np.ndarray, genre: np.ndarray, n_genres: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted user ids, and per (user, genre) the sum and count of the
    ratings over the (row, genre) pairs.  On the rating grid the sums are
    exact in any order."""
    users, inv = np.unique(table.users, return_inverse=True)
    shape = (len(users), n_genres)
    flat = inv[rows] * n_genres + genre
    size = shape[0] * shape[1]
    sums = np.bincount(flat, weights=table.values[rows], minlength=size).reshape(shape)
    return users, sums, np.bincount(flat, minlength=size).reshape(shape)


def _coherence(table: RatingsTable, genres: GenreMap) -> tuple[np.ndarray, ...]:
    """Sorted user ids with their coherence and whether they rated any item
    with genres, and the table's genre sums and counts (_genre_sums).

    Coherence is 1 - the mean normalized within-genre deviation: for each
    rated item with at least one genre, the mean over the item's genres g of
    |r - m_g| / span, where m_g is the user's mean rating over items carrying
    g.  Items without genres are skipped; a user with only genre-less items
    gets coherence 1.0.
    """
    rows, genre = _genre_pairs(table, genres)
    users, sums, counts = _genre_sums(table, rows, genre, len(genres.vocabulary))
    user = sorted_index(users, table.users[rows])
    abs_dev = np.abs(table.values[rows] - sums[user, genre] / counts[user, genre])
    rated, starts, lengths = np.unique(rows, return_index=True, return_counts=True)
    devs = segment_means(abs_dev, starts, lengths) / table.scale.span
    owners, starts, lengths = np.unique(table.users[rated], return_index=True, return_counts=True)
    had = np.isin(users, owners)
    coherence = np.ones(len(users))
    coherence[had] = 1.0 - segment_means(devs, starts, lengths)
    return users, coherence, had, sums, counts


def _groups(table: RatingsTable, genres: GenreMap, coherence_cut: float) -> tuple[np.ndarray, ...]:
    """Every user of this table, ascending, with their quantity code (rating-count
    tercile) and whether their quality is easy (coherent over the items' genres)
    rather than difficult; then the table's genre sums and counts."""
    users, coherence, had, *genre_sums = _coherence(table, genres)
    counts = np.unique(table.users, return_counts=True)[1].astype(np.float64)
    q1 = float(np.quantile(counts, 1 / 3))
    q2 = float(np.quantile(counts, 2 / 3))
    quantity = np.where(counts > q2, 0, np.where(counts <= q1, _LIGHT, _MEDIUM))
    for u in users[~had].tolist():
        logger.warning("user %d rated only genre-less items; quality defaults to easy", u)
    return users, quantity, ~had | (coherence >= coherence_cut), *genre_sums


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
    noisy: np.ndarray  # per test row
    quantity: np.ndarray  # per test row: its user's quantity code
    easy: np.ndarray  # per test row: whether its user's quality is easy
    rnd: np.ndarray  # per test row


def nf2_detect(
    test: RatingsTable,
    genres: GenreMap,
    theta_heavy_medium: float = DEFAULT_THETA_HEAVY_MEDIUM,
    theta_light: float = DEFAULT_THETA_LIGHT,
    rnd_cut: float = DEFAULT_RND_CUT,
    context: RatingsTable | None = None,
    coherence_cut: float = DEFAULT_COHERENCE_CUT,
) -> Nf2Result:
    """Group-aware noisy-degree detector over the items' genres.

    Groups and genre means come from `context` (the board's train + test;
    the test table by default), which must hold every test user: ValueError
    names the first it lacks.  Genre means are leave-one-out: the rating
    under scrutiny is removed from its own genre means, and genres the user
    only knows through this very rating are skipped.  Medium-quantity users
    with easy (coherent) profiles are never flagged; everyone else is
    flagged when RND exceeds rnd_cut.
    """
    ctx = context if context is not None else test
    users, quantity, easy, sums, counts = _groups(ctx, genres, coherence_cut)
    at = context_index(users, test.users, "user")
    quantity, easy = quantity[at], easy[at]
    theta = np.where(quantity == _LIGHT, theta_light, theta_heavy_medium)

    # Leave-one-out genre means: the user's per-genre sums and counts over
    # the context, minus the rating itself when the context holds it.
    own = ctx.contains(test.users, test.items)
    rows, genre = _genre_pairs(test, genres)
    user = at[rows]
    cnt = counts[user, genre] - own[rows]
    ok = cnt >= 1
    rows, genre, user, cnt = rows[ok], genre[ok], user[ok], cnt[ok]
    value = test.values[rows]
    mean = (sums[user, genre] - np.where(own[rows], value, 0.0)) / cnt
    deviant = np.abs(value - mean) / np.maximum(mean, _EPS) >= theta[rows]
    n_means = np.bincount(rows, minlength=len(test))
    n_deviant = np.bincount(rows[deviant], minlength=len(test))
    rnd = np.zeros(len(test))
    np.divide(n_deviant, n_means, out=rnd, where=n_means > 0)
    exempt = (quantity == _MEDIUM) & easy
    return Nf2Result(~exempt & (rnd > rnd_cut), quantity, easy, rnd)
