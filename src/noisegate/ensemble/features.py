"""Per-rating feature vectors assembled from Layer-1 outputs."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from ..board import BoardResult
from ..board.nf1 import ItemClass, UserClass
from ..dataset import RatingsTable
from ..ioutil import atomic_write_columns, format_floats, read_columns

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

_USER_CLASS_CODE = {
    UserClass.CRITICAL: 0.0,
    UserClass.AVERAGE: 1.0,
    UserClass.BENEVOLENT: 2.0,
    UserClass.VARIABLE: 3.0,
}
_ITEM_CLASS_CODE = {
    ItemClass.WEAKLY_PREFERRED: 0.0,
    ItemClass.AVERAGELY_PREFERRED: 1.0,
    ItemClass.STRONGLY_PREFERRED: 2.0,
    ItemClass.VARIABLY_PREFERRED: 3.0,
}


def _per_id(ids: np.ndarray, row_of) -> np.ndarray:
    """row_of(id) for each id, computed once per distinct id."""
    uniq, at = np.unique(ids, return_inverse=True)
    return np.array([row_of(i) for i in uniq.tolist()], dtype=np.float64)[at]


def build_feature_matrix(
    test: RatingsTable, context: RatingsTable, board: BoardResult
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Feature matrix for the test ratings the board voted on, keyed in table order.

    Statistics come from the same context table the detectors profiled on.
    An unpredictable kNN rating encodes consistency 0 alongside a raised
    missing flag so the learners can tell it apart from a perfect match.
    """
    votes = board.votes
    if not (np.array_equal(votes.users, test.users) and np.array_equal(votes.items, test.items)):
        raise ValueError(f"the board's votes are not aligned to the {len(test)} rows of this table")
    keys = test.keys()
    if not keys:
        return keys, np.zeros((0, len(FEATURE_NAMES)))
    user_stats, item_stats = context.user_stats(), context.item_stats()
    # (mean, std, log count, class code) per user and per item
    user = _per_id(test.users, lambda u: (
        *user_stats[u][:2], math.log(user_stats[u][2]),
        _USER_CLASS_CODE[board.nf1.user_classes[u]],
    ))
    item = _per_id(test.items, lambda i: (
        *item_stats[i][:2], math.log(item_stats[i][2]),
        _ITEM_CLASS_CODE[board.nf1.item_classes[i]],
    ))
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
        user[:, 3],
        item[:, 3],
        board.nf4.noise_degree,
        np.where(missing, 0.0, cons),
        missing,
        board.nf2.rnd,
        votes.noisy,
    ]).astype(np.float64)
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise ValueError(f"non-finite feature for rating {keys[int(np.argmax(bad))]}")
    return keys, X


FEATURES_HEADER = ("userId", "itemId", *FEATURE_NAMES)
_FEATURES_DTYPE = np.dtype(
    [("user", np.int64), ("item", np.int64), ("x", np.float64, (len(FEATURE_NAMES),))]
)


def write_features(
    path: str | Path, keys: list[tuple[int, int]], X: np.ndarray
) -> None:
    """Persist the feature matrix so later stages can run without
    recomputing the detector board."""
    ids = np.array(keys, dtype=np.int64).reshape(-1, 2)
    atomic_write_columns(path, FEATURES_HEADER, (ids, format_floats(X)))


def read_features(path: str | Path) -> tuple[list[tuple[int, int]], np.ndarray]:
    rows = read_columns(path, FEATURES_HEADER, _FEATURES_DTYPE)
    if rows is None:
        return _read_feature_rows(Path(path))
    return list(zip(rows["user"].tolist(), rows["item"].tolist())), np.ascontiguousarray(rows["x"])


def _read_feature_rows(path: Path) -> tuple[list[tuple[int, int]], np.ndarray]:
    """read_features one row at a time, for a file read_columns does not
    take: it reads the file or raises the error of its first bad row."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != FEATURES_HEADER:
            raise ValueError(f"{path}: unexpected features header: {header[:4]}...")
        keys: list[tuple[int, int]] = []
        rows: list[list[float]] = []
        for row in reader:
            if len(row) != len(FEATURES_HEADER):
                raise ValueError(f"{path}: expected {len(FEATURES_HEADER)} fields in every row")
            keys.append((int(row[0]), int(row[1])))
            rows.append([float(v) for v in row[2:]])
    X = np.array(rows) if rows else np.zeros((0, len(FEATURE_NAMES)))
    return keys, X
