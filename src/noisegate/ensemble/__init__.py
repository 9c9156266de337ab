"""Layer 2: ensemble learners that settle the board's Uncertain ratings.

Variants: EL1 bagging random forest, EL2 / EL2_2 stacking, EL3 gradient
boosting (default), EL4_1 / EL4_2 bagged self-training, EL5 extended
isolation forest (unsupervised, scores the uncertain set directly).
train_el returns the fitted learner, whose predict_with_proba(X) gives
int64 labels (1 = noisy) and float64 scores: the noisy-class probability,
or EL5's anomaly score, labeled noisy above eif_score_cut.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..board.verdict import Verdict
from ..ioutil import atomic_write_columns, read_columns, row_error
from .boosting import GbtModel, train_gbt
from .features import FEATURE_NAMES, build_feature_matrix
from .forest import RandomForest
from .isolation import ExtendedIsolationForest
from .ressel import ResselModel, train_ressel
from .stacking import StackingModel, train_stacking
from .trees import DecisionTree, RegressionTree

logger = logging.getLogger("noisegate.ensemble")

VARIANTS = ("EL1", "EL2", "EL2_2", "EL3", "EL4_1", "EL4_2", "EL5")

__all__ = [
    "VARIANTS", "EnsembleConfig", "train_el", "classify_uncertain",
    "train_stacking", "train_gbt", "train_ressel",
    "build_feature_matrix", "FEATURE_NAMES",
    "RandomForest", "DecisionTree", "RegressionTree", "ExtendedIsolationForest",
    "StackingModel", "GbtModel", "ResselModel",
    "write_classification", "read_classification",
]


@dataclass(frozen=True)
class EnsembleConfig:
    """Layer-2 keys: the variant and its learners' settings."""

    ensemble_variant: str = "EL3"
    rf_trees: int = 100
    rf_max_depth: int = 8
    rf_feature_subset: int | None = None
    gbt_rounds: int = 100
    gbt_depth: int = 3
    gbt_lr: float = 0.1
    ressel_bags: int = 25
    ressel_add_per_round: int = 10
    ressel_max_rounds: int = 20
    eif_trees: int = 100
    eif_sample_size: int = 256
    eif_extension_level: int | None = None
    eif_score_cut: float = 0.8


class _ConstantModel:
    """One label for every row, with the label itself as the score."""

    def __init__(self, label: int, n_features: int):
        self.label = label
        self.n_features = n_features

    def predict_with_proba(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got shape {X.shape}")
        return np.full(len(X), self.label, dtype=np.int64), np.full(len(X), float(self.label))


def train_el(
    X_labeled: np.ndarray,
    y: np.ndarray,
    X_unlabeled: np.ndarray,
    config: EnsembleConfig = EnsembleConfig(),
    seed: int = 0,
):
    """The configured variant's learner, trained on consensus labels (1 = noisy).

    EL5 ignores the labeled set and isolates within the unlabeled features.
    A single-class training set, or EL5 with fewer than 2 unlabeled rows,
    gives a constant model.
    """
    X_labeled = np.asarray(X_labeled, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    X_unlabeled = np.asarray(X_unlabeled, dtype=np.float64)
    v = config.ensemble_variant
    if v not in VARIANTS:
        raise ValueError(f"unknown variant {v!r}")
    n_features = X_labeled.shape[1] if X_labeled.size else X_unlabeled.shape[1]
    if v == "EL5":
        if len(X_unlabeled) < 2:
            logger.warning("EL5: fewer than 2 uncertain points; everything passes as clean")
            return _ConstantModel(0, n_features)
        return ExtendedIsolationForest(
            config.eif_trees, config.eif_sample_size, config.eif_extension_level, seed,
            config.eif_score_cut,
        ).fit(X_unlabeled)
    classes = np.unique(y)
    if len(classes) < 2:
        label = int(classes[0]) if len(classes) else 0
        logger.warning("%s: single-class training set; using constant classifier %d", v, label)
        return _ConstantModel(label, n_features)
    if v == "EL1":
        return RandomForest(
            config.rf_trees, config.rf_max_depth, config.rf_feature_subset, seed
        ).fit(X_labeled, y)
    if v in ("EL2", "EL2_2"):
        return train_stacking(X_labeled, y, v, seed)
    if v == "EL3":
        return train_gbt(X_labeled, y, config.gbt_rounds, config.gbt_depth, config.gbt_lr)
    return train_ressel(  # EL4_1 and EL4_2
        X_labeled, y, X_unlabeled, v, config.ressel_bags,
        config.ressel_add_per_round, seed, config.ressel_max_rounds,
    )


def classify_uncertain(model, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Noisy flags and scores of the uncertain ratings, one per row of X.

    EL5 labels by a fixed cut on its anomaly scores, so when none of them
    passes the cut it logs a WARNING with the highest score and the cut.
    """
    if len(X) == 0:
        return np.zeros(0, dtype=bool), np.zeros(0)
    labels, scores = model.predict_with_proba(X)
    noisy = labels == 1
    if isinstance(model, ExtendedIsolationForest) and not noisy.any():
        logger.warning(
            "EL5 labels none of %d Uncertain ratings Noisy: highest score %.3f, "
            "eif_score_cut %s", len(scores), scores.max(), model.score_cut,
        )
    return noisy, scores


# -- persistence --------------------------------------------------------


CLASSIFICATION_HEADER = ("userId", "itemId", "score", "label", "variant")
# Labels and variants are read wider than any valid one, so a longer cell
# cannot be cut down to one.
_CLASSIFICATION_DTYPE = np.dtype([
    ("user", np.int64), ("item", np.int64), ("score", np.float64),
    ("label", "U16"), ("variant", "U16"),
])
_LABELS = np.array([Verdict.CLEAN.value, Verdict.NOISY.value], dtype=object)  # by noisy flag


def write_classification(
    users: np.ndarray, items: np.ndarray, noisy: np.ndarray, scores: np.ndarray,
    variant: str, path: str | Path,
) -> None:
    """One row per classified rating, in the order given."""
    labels = _LABELS[np.asarray(noisy, dtype=np.intp)]
    atomic_write_columns(
        path, CLASSIFICATION_HEADER,
        (users, items, scores, labels, np.full(len(users), variant, dtype=object)),
    )


def read_classification(
    path: str | Path, variant: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(users, items, noisy, scores) of an ensemble.csv in file order, read
    by read_columns, whose ValueError names a row that does not parse.  The
    first row whose label is not a Verdict, or whose variant cell is not
    variant, raises ValueError with its line (row_error)."""
    rows = read_columns(path, CLASSIFICATION_HEADER, _CLASSIFICATION_DTYPE)
    label, cell = rows["label"], rows["variant"]
    noisy = label == Verdict.NOISY.value
    bad_label = ~noisy & (label != Verdict.CLEAN.value)
    bad = bad_label | (cell != variant)
    if bad.any():
        k = int(np.argmax(bad))
        if bad_label[k]:
            raise row_error(path, k, f"{str(label[k])!r} is not a valid Verdict")
        raise row_error(path, k, f"variant {str(cell[k])!r}, expected {variant!r}")
    users, items, scores = (np.ascontiguousarray(rows[name]) for name in ("user", "item", "score"))
    return users, items, noisy, scores
