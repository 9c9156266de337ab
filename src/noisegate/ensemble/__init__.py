"""Layer 2: ensemble learners that settle the board's Uncertain ratings.

Variants: EL1 bagging random forest, EL2 / EL2_2 stacking, EL3 gradient
boosting (default), EL4_1 / EL4_2 bagged self-training, EL5 extended
isolation forest (unsupervised, scores the uncertain set directly).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..board.verdict import Verdict
from ..ioutil import atomic_write_columns, format_floats, read_columns, read_csv_rows
from ..seeding import derive_seed
from .boosting import GbtModel, train_gbt
from .features import FEATURE_NAMES, build_feature_matrix
from .forest import RandomForest
from .isolation import ExtendedIsolationForest, score_isolation_forest
from .ressel import ResselModel, train_bagging, train_ressel
from .stacking import StackingModel, train_stacking
from .trees import DecisionTree, RegressionTree

logger = logging.getLogger("noisegate.ensemble")

VARIANTS = ("EL1", "EL2", "EL2_2", "EL3", "EL4_1", "EL4_2", "EL5")

__all__ = [
    "VARIANTS", "ElModel", "EnsembleConfig", "train_el", "classify_uncertain",
    "train_random_forest", "train_stacking", "train_gbt", "train_ressel",
    "train_bagging", "score_isolation_forest",
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
    def __init__(self, label: int):
        self.label = label

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.full(len(X), self.label, dtype=np.int64)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return np.full(len(X), float(self.label))


class ElModel:
    """A trained Layer-2 learner: variant tag, inner model, diagnostics."""

    def __init__(self, variant: str, inner, n_features: int, diagnostics: dict,
                 score_cut: float | None = None):
        self.variant = variant
        self.inner = inner
        self.n_features = n_features
        self.diagnostics = diagnostics
        self.score_cut = score_cut

    def _check(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got shape {X.shape}")
        return X

    def classify(self, X: np.ndarray) -> np.ndarray:
        return self.classify_with_scores(X)[0]

    def classify_with_scores(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Labels (1 = noisy) and scores: the noisy-class probability
        (supervised) or the anomaly score (EL5, labeled noisy above score_cut)."""
        X = self._check(X)
        if self.variant == "EL5":
            scores = self.inner.score(X)
            return (scores > self.score_cut).astype(np.int64), scores
        if isinstance(self.inner, StackingModel):
            return self.inner.predict_with_proba(X)
        return self.inner.predict(X), self.inner.predict_proba(X)


def train_random_forest(
    X: np.ndarray, y: np.ndarray, trees: int = 100, max_depth: int = 8,
    feature_subset: int | None = None, seed: int = 0,
) -> ElModel:
    """EL1: bootstrap CART forest with OOB error tracking."""
    y = np.asarray(y, dtype=np.int64)
    constant = _single_class_guard(y, "EL1")
    if constant is not None:
        return ElModel("EL1", constant, np.asarray(X).shape[1], {"constant": True})
    forest = RandomForest(trees, max_depth, feature_subset, seed)
    forest.fit(X, y)
    diag = {"oob_error": forest.oob_error, "oob_curve": forest.oob_curve}
    return ElModel("EL1", forest, np.asarray(X).shape[1], diag)


def _single_class_guard(y: np.ndarray, variant: str) -> _ConstantModel | None:
    classes = np.unique(y)
    if len(classes) < 2:
        label = int(classes[0]) if len(classes) else 0
        logger.warning("%s: single-class training set; using constant classifier %d", variant, label)
        return _ConstantModel(label)
    return None


def train_el(
    X_labeled: np.ndarray,
    y: np.ndarray,
    X_unlabeled: np.ndarray,
    config: EnsembleConfig = EnsembleConfig(),
    seed: int = 0,
) -> ElModel:
    """Train the configured variant on consensus labels (1 = noisy).

    EL5 ignores the labeled set and isolates within the unlabeled features.
    """
    X_labeled = np.asarray(X_labeled, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    X_unlabeled = np.asarray(X_unlabeled, dtype=np.float64)
    v = config.ensemble_variant
    if v not in VARIANTS:
        raise ValueError(f"unknown variant {v!r}")
    n_features = X_labeled.shape[1] if X_labeled.size else X_unlabeled.shape[1]
    if v == "EL5":
        forest = ExtendedIsolationForest(
            config.eif_trees, config.eif_sample_size, config.eif_extension_level, seed
        )
        if len(X_unlabeled) < 2:
            logger.warning("EL5: fewer than 2 uncertain points; everything passes as clean")
            return ElModel("EL5", _ConstantModel(0), n_features, {"degenerate": True},
                           score_cut=config.eif_score_cut)
        forest.fit(X_unlabeled)
        return ElModel("EL5", forest, n_features, {"trees": config.eif_trees},
                       score_cut=config.eif_score_cut)
    constant = _single_class_guard(y, v)
    if constant is not None:
        return ElModel(v, constant, n_features, {"constant": True})
    if v == "EL1":
        return train_random_forest(
            X_labeled, y, config.rf_trees, config.rf_max_depth, config.rf_feature_subset, seed
        )
    if v in ("EL2", "EL2_2"):
        model = train_stacking(X_labeled, y, v, seed)
        return ElModel(v, model, n_features, {"bases": model.base_names})
    if v == "EL3":
        model = train_gbt(X_labeled, y, config.gbt_rounds, config.gbt_depth, config.gbt_lr, seed)
        return ElModel(v, model, n_features, {"loss_curve": model.loss_curve})
    # EL4_1 and EL4_2
    model = train_ressel(
        X_labeled, y, X_unlabeled, v, config.ressel_bags,
        config.ressel_add_per_round, seed, config.ressel_max_rounds,
    )
    return ElModel(v, model, n_features, {"oob_sequences": model.oob_sequences})


def classify_uncertain(model: ElModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Noisy flags and scores of the uncertain ratings, one per row of X."""
    if len(X) == 0:
        return np.zeros(0, dtype=bool), np.zeros(0)
    labels, scores = model.classify_with_scores(X)
    return labels == 1, np.asarray(scores, dtype=np.float64)


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
        (users, items, format_floats(scores), labels, np.full(len(users), variant, dtype=object)),
    )


def read_classification(
    path: str | Path, variant: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(users, items, noisy, scores) of an ensemble.csv in file order.  A
    malformed row raises ValueError, and so does a variant cell other than
    variant."""
    rows = read_columns(path, CLASSIFICATION_HEADER, _CLASSIFICATION_DTYPE)
    if rows is not None:
        label = rows["label"]
        noisy = label == Verdict.NOISY.value
        if ((noisy | (label == Verdict.CLEAN.value)) & (rows["variant"] == variant)).all():
            users, items, scores = (
                np.ascontiguousarray(rows[name]) for name in ("user", "item", "score")
            )
            return users, items, noisy, scores
    return _read_classification_rows(path, variant)


def _read_classification_rows(
    path: str | Path, variant: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """read_classification through csv.reader, for a file read_columns does
    not take: it reads the file or raises the error of its first bad row."""
    ids, noisy, scores = [], [], []
    for lineno, row in enumerate(read_csv_rows(path, CLASSIFICATION_HEADER), start=2):
        ids.append((int(row[0]), int(row[1])))
        scores.append(float(row[2]))
        noisy.append(Verdict(row[3]) is Verdict.NOISY)
        if row[4] != variant:
            raise ValueError(f"{path}:{lineno}: variant {row[4]!r}, expected {variant!r}")
    users, items = np.array(ids, dtype=np.int64).reshape(-1, 2).T
    return users, items, np.array(noisy, dtype=bool), np.array(scores, dtype=np.float64)
