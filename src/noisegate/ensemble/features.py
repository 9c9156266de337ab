"""Per-rating feature vectors assembled from Layer-1 outputs."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ..board import BoardResult
from ..dataset import RatingsTable, context_index, id_stats
from ..ioutil import atomic_write_columns, read_columns

FEATURE_NAMES = (
    "rating_norm",
    "user_mean",
    "user_std",
    "item_mean",
    "item_std",
    "abs_dev_user_mean",
    "abs_dev_item_mean",
    "log_user_count",
    "log_item_count",
    "nf1_user_class",
    "nf1_item_class",
    "nf4_noise_degree",
    "nf3_consistency",
    "nf3_missing",
    "nf2_rnd",
    "vote_nf1",
    "vote_nf2",
    "vote_nf3",
    "vote_nf4",
)


def _stats_at(ids: np.ndarray, ctx_ids: np.ndarray, values: np.ndarray, what: str) -> np.ndarray:
    """(mean, std, log count) of the context values of each id (a `what`), one row per id.

    The logs come from math.log, one call per distinct count: np.log can
    differ from it in the last bit.
    """
    uniq, mean, std, count = id_stats(ctx_ids, values)
    at = context_index(uniq, ids, what)
    counts, inv = np.unique(count, return_inverse=True)
    log_count = np.array([math.log(n) for n in counts.tolist()])[inv]
    return np.column_stack([mean, std, log_count])[at]


def build_feature_matrix(
    test: RatingsTable, context: RatingsTable, board: BoardResult
) -> np.ndarray:
    """Feature matrix for the test ratings the board voted on, one row per vote row.

    Statistics come from the context table the detectors profiled on
    (BoardResult.context): ValueError names a test user or item it lacks.
    An unpredictable kNN rating encodes consistency 0 alongside a raised
    missing flag so the learners can tell it apart from a perfect match.
    """
    votes = board.votes
    if not (np.array_equal(votes.users, test.users) and np.array_equal(votes.items, test.items)):
        raise ValueError(f"the board's votes are not aligned to the {len(test)} rows of this table")
    if not len(test):
        return np.zeros((0, len(FEATURE_NAMES)))
    user = _stats_at(test.users, context.users, context.values, "user")
    item = _stats_at(test.items, context.items, context.values, "item")
    value = test.values
    scale = context.scale
    cons = board.nf3.consistency
    missing = np.isnan(cons)
    X = np.column_stack([
        (value - scale.r_min) / scale.span,
        user[:, :2],
        item[:, :2],
        np.abs(value - user[:, 0]),
        np.abs(value - item[:, 0]),
        user[:, 2],
        item[:, 2],
        board.nf1.user_class,
        board.nf1.item_class,
        board.nf4.noise_degree,
        np.where(missing, 0.0, cons),
        missing,
        board.nf2.rnd,
        votes.noisy,
    ]).astype(np.float64)
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"non-finite feature for rating ({test.users[k]}, {test.items[k]})")
    return X


FEATURES_HEADER = ("userId", "itemId", *FEATURE_NAMES)
_FEATURES_DTYPE = np.dtype(
    [("user", np.int64), ("item", np.int64), ("x", np.float64, (len(FEATURE_NAMES),))]
)


def write_features(path: str | Path, users: np.ndarray, items: np.ndarray, X: np.ndarray) -> None:
    """Persist the feature matrix so later stages can run without
    recomputing the detector board."""
    atomic_write_columns(path, FEATURES_HEADER, (users, items, X))


def read_features(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(users, items, X) of a features.csv in file order, read by
    read_columns, whose ValueError names a row that does not parse."""
    rows = read_columns(path, FEATURES_HEADER, _FEATURES_DTYPE)
    return tuple(np.ascontiguousarray(rows[name]) for name in ("user", "item", "x"))
