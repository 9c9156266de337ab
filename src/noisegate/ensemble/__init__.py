"""Layer 2: ensemble learners that settle the board's Uncertain ratings.

Variants: EL1 bagging random forest, EL2 / EL2_2 stacking, EL3 gradient
boosting (default), EL4_1 / EL4_2 bagged self-training, EL5 extended
isolation forest (unsupervised, scores the uncertain set directly).
"""

from __future__ import annotations

import csv
import logging
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ..board.verdict import Verdict
from ..ioutil import atomic_write_csv
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

MODEL_FORMAT = "noisegate-el"
MODEL_VERSION = 1

__all__ = [
    "VARIANTS", "ElModel", "EnsembleConfig", "train_el", "classify_uncertain",
    "train_random_forest", "train_stacking", "train_gbt", "train_ressel",
    "train_bagging", "score_isolation_forest",
    "build_feature_matrix", "FEATURE_NAMES",
    "RandomForest", "DecisionTree", "RegressionTree", "ExtendedIsolationForest",
    "StackingModel", "GbtModel", "ResselModel",
    "save_el_model", "load_el_model", "write_classification", "read_classification",
]


@dataclass(frozen=True)
class EnsembleConfig:
    variant: str = "EL3"
    rf_trees: int = 100
    rf_max_depth: int = 8
    rf_feature_subset: int | None = None
    gbt_rounds: int = 100
    gbt_depth: int = 3
    gbt_lr: float = 0.1
    ressel_bags: int = 25
    ressel_add_per_round: int = 10
    ressel_max_rounds: int | None = 20
    eif_trees: int = 100
    eif_sample_size: int = 256
    eif_extension_level: int | None = None
    eif_score_cut: float = 0.8

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


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
    v = config.variant
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
    if v in ("EL4_1", "EL4_2"):
        model = train_ressel(
            X_labeled, y, X_unlabeled, v, config.ressel_bags,
            config.ressel_add_per_round, seed, config.ressel_max_rounds,
        )
        return ElModel(v, model, n_features, {"oob_sequences": model.oob_sequences})
    raise ValueError(f"unknown variant {v!r}")


def classify_uncertain(
    model: ElModel, keys: Sequence[tuple[int, int]], X: np.ndarray
) -> tuple[dict[tuple[int, int], Verdict], dict[tuple[int, int], float]]:
    """Label every uncertain rating Noisy or Clean; returns (labels, scores)."""
    if len(keys) == 0:
        return {}, {}
    labels, scores = model.classify_with_scores(X)
    verdicts = {
        key: (Verdict.NOISY if labels[k] == 1 else Verdict.CLEAN) for k, key in enumerate(keys)
    }
    return verdicts, {key: float(scores[k]) for k, key in enumerate(keys)}


# -- persistence --------------------------------------------------------


def save_el_model(model: ElModel, path: str | Path) -> None:
    """Versioned binary blob: a pickled payload behind a small header."""
    blob = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "variant": model.variant,
        "n_features": model.n_features,
        "score_cut": model.score_cut,
        "diagnostics": model.diagnostics,
        "inner": model.inner,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("wb") as fh:
        pickle.dump(blob, fh, protocol=4)
    tmp.replace(path)


def load_el_model(path: str | Path) -> ElModel:
    with Path(path).open("rb") as fh:
        blob = pickle.load(fh)
    if blob.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} model file")
    if blob.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {blob.get('version')}")
    return ElModel(blob["variant"], blob["inner"], blob["n_features"],
                   blob["diagnostics"], blob["score_cut"])


CLASSIFICATION_HEADER = ("userId", "itemId", "score", "label", "variant")


def write_classification(
    labels: dict[tuple[int, int], Verdict],
    scores: dict[tuple[int, int], float],
    variant: str,
    path: str | Path,
) -> None:
    atomic_write_csv(
        path,
        CLASSIFICATION_HEADER,
        ([key[0], key[1], repr(scores[key]), labels[key].value, variant] for key in sorted(labels)),
    )


def read_classification(path: str | Path) -> dict[tuple[int, int], Verdict]:
    out: dict[tuple[int, int], Verdict] = {}
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CLASSIFICATION_HEADER:
            raise ValueError(f"{path}: expected header {','.join(CLASSIFICATION_HEADER)}")
        for row in reader:
            out[(int(row[0]), int(row[1]))] = Verdict(row[3])
    return out
