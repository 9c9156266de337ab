"""Per-rating feature vectors assembled from Layer-1 outputs."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from ..board import BoardResult
from ..board.nf1 import ItemClass, UserClass
from ..board.verdict import DETECTOR_IDS, Verdict
from ..dataset import Rating, RatingsTable
from ..ioutil import atomic_write_csv

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


def build_features(rating: Rating, context: RatingsTable, board: BoardResult) -> np.ndarray:
    """Fixed-order feature vector for one voted rating.

    Statistics come from the same context table the detectors profiled on.
    An unpredictable kNN rating encodes consistency 0 alongside a raised
    missing flag so the learners can tell it apart from a perfect match.
    """
    key = (rating.user_id, rating.item_id)
    votes = None
    for vs in board.votesets:
        if vs.key == key:
            votes = vs.votes
            break
    if votes is None:
        raise ValueError(f"rating {key} has not been voted on")
    return _vector(rating, key, votes, context, board)


def _vector(
    rating: Rating,
    key: tuple[int, int],
    votes: dict[str, Verdict],
    context: RatingsTable,
    board: BoardResult,
) -> np.ndarray:
    scale = context.scale
    u_mean, u_std, u_count = context.user_stats()[rating.user_id]
    i_mean, i_std, i_count = context.item_stats()[rating.item_id]
    c = board.nf3.consistency.get(key)
    missing = 1.0 if c is None else 0.0
    vec = np.array(
        [
            (rating.value - scale.r_min) / scale.span,
            u_mean,
            u_std,
            i_mean,
            i_std,
            abs(rating.value - u_mean),
            abs(rating.value - i_mean),
            math.log(u_count),
            math.log(i_count),
            _USER_CLASS_CODE[board.nf1.user_classes[rating.user_id]],
            _ITEM_CLASS_CODE[board.nf1.item_classes[rating.item_id]],
            board.nf4.noise_degree[key],
            0.0 if c is None else c,
            missing,
            board.nf2.rnd[key],
        ]
        + [1.0 if votes[d] is Verdict.NOISY else 0.0 for d in DETECTOR_IDS]
    )
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"non-finite feature for rating {key}")
    return vec


def build_feature_matrix(
    test: RatingsTable, context: RatingsTable, board: BoardResult
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Feature matrix for every voted test rating, keyed in table order."""
    votes_by_key = {vs.key: vs.votes for vs in board.votesets}
    keys: list[tuple[int, int]] = []
    rows: list[np.ndarray] = []
    for r in test:
        key = (r.user_id, r.item_id)
        if key not in votes_by_key:
            raise ValueError(f"rating {key} has not been voted on")
        keys.append(key)
        rows.append(_vector(r, key, votes_by_key[key], context, board))
    X = np.vstack(rows) if rows else np.zeros((0, len(FEATURE_NAMES)))
    return keys, X


FEATURES_HEADER = ("userId", "itemId", *FEATURE_NAMES)


def write_features(
    path: str | Path, keys: list[tuple[int, int]], X: np.ndarray
) -> None:
    """Persist the feature matrix so later stages can run without
    recomputing the detector board."""
    atomic_write_csv(
        path,
        FEATURES_HEADER,
        ([user, item, *[repr(float(v)) for v in row]] for (user, item), row in zip(keys, X)),
    )


def read_features(path: str | Path) -> tuple[list[tuple[int, int]], np.ndarray]:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != FEATURES_HEADER:
            raise ValueError(f"unexpected features header: {header[:4]}...")
        keys: list[tuple[int, int]] = []
        rows: list[list[float]] = []
        for row in reader:
            keys.append((int(row[0]), int(row[1])))
            rows.append([float(v) for v in row[2:]])
    X = np.array(rows) if rows else np.zeros((0, len(FEATURE_NAMES)))
    return keys, X
