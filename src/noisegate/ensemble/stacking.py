"""Stacked generalization: out-of-fold base predictions feed a logistic meta-learner."""

from __future__ import annotations

import logging

import numpy as np

from ..seeding import derive_seed
from .forest import RandomForest
from .learners import GaussianNB, KnnClassifier, LogisticRegression, MarginClassifier
from .trees import DecisionTree

logger = logging.getLogger("noisegate.ensemble.stacking")

N_FOLDS = 5


def _base_factories(variant: str):
    """Base-learner rosters per stacking variant; each entry is seed -> classifier."""
    if variant == "EL2":
        return [
            ("knn", lambda s: KnnClassifier(k=5, seed=s)),
            ("cart", lambda s: DecisionTree(max_depth=8, seed=s)),
            ("margin", lambda s: MarginClassifier(seed=s)),
            ("gnb", lambda s: GaussianNB(seed=s)),
        ]
    if variant == "EL2_2":
        return [
            ("rf", lambda s: RandomForest(trees=50, max_depth=8, seed=s)),
            ("extra", lambda s: RandomForest(trees=50, max_depth=8, splitter="random",
                                             bootstrap=False, seed=s)),
            ("logreg", lambda s: LogisticRegression(seed=s)),
            ("cart", lambda s: DecisionTree(max_depth=8, seed=s)),
            ("gnb", lambda s: GaussianNB(seed=s)),
        ]
    raise ValueError(f"unknown stacking variant {variant!r}")


def _stratified_folds(y: np.ndarray, n_folds: int, seed: int) -> list[np.ndarray]:
    """Round-robin class-stratified folds in seeded order."""
    rng = np.random.default_rng(seed)
    assignment = np.zeros(len(y), dtype=np.int64)
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        idx = idx[rng.permutation(len(idx))]
        assignment[idx] = np.arange(len(idx)) % n_folds
    return [np.flatnonzero(assignment == f) for f in range(n_folds)]


def _merge_degenerate_folds(folds: list[np.ndarray], y: np.ndarray) -> list[np.ndarray]:
    """Merge any fold whose complement is single-class into its neighbor."""
    changed = True
    while changed and len(folds) > 1:
        changed = False
        for f in range(len(folds)):
            rest = np.concatenate([folds[g] for g in range(len(folds)) if g != f])
            if len(np.unique(y[rest])) < 2 or len(folds[f]) == 0:
                neighbor = f - 1 if f > 0 else f + 1
                logger.warning("merging degenerate fold %d into fold %d", f, neighbor)
                folds[neighbor] = np.concatenate([folds[neighbor], folds[f]])
                del folds[f]
                changed = True
                break
    return folds


class StackingModel:
    def __init__(self, variant: str, bases, meta: LogisticRegression, base_names: list[str]):
        self.variant = variant
        self.bases = bases
        self.meta = meta
        self.base_names = base_names

    def _base_matrix(self, X: np.ndarray) -> np.ndarray:
        return np.column_stack([b.predict_proba(X) for b in self.bases])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_with_proba(X)[0]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.predict_with_proba(X)[1]

    def predict_with_proba(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(predict(X), predict_proba(X)) from one pass of the base learners."""
        Z = self._base_matrix(X)
        return self.meta.predict(Z), self.meta.predict_proba(Z)


def train_stacking(X: np.ndarray, y: np.ndarray, variant: str = "EL2", seed: int = 0) -> StackingModel:
    """Five-fold out-of-fold stacking with a logistic-regression meta-learner.

    Each base learner's out-of-fold probabilities become one meta-feature;
    the bases are refit on the full training set afterwards.  Folds whose
    training complement is single-class get merged into a neighbor.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    factories = _base_factories(variant)
    folds = _stratified_folds(y, min(N_FOLDS, len(y)), derive_seed(seed, 101))
    folds = [f for f in folds if len(f)]
    folds = _merge_degenerate_folds(folds, y)
    Z = np.zeros((len(y), len(factories)))
    if len(folds) < 2:
        logger.warning("too few valid folds; meta-features fall back to in-sample predictions")
        for b, (name, make) in enumerate(factories):
            clf = make(derive_seed(seed, 7, b))
            clf.fit(X, y)
            Z[:, b] = clf.predict_proba(X)
    else:
        for f, fold in enumerate(folds):
            rest = np.concatenate([folds[g] for g in range(len(folds)) if g != f])
            for b, (name, make) in enumerate(factories):
                clf = make(derive_seed(seed, 7, b))
                clf.fit(X[rest], y[rest])
                Z[fold, b] = clf.predict_proba(X[fold])
    meta = LogisticRegression(seed=derive_seed(seed, 999))
    meta.fit(Z, y)
    bases = []
    names = []
    for b, (name, make) in enumerate(factories):
        clf = make(derive_seed(seed, 7, b))
        clf.fit(X, y)
        bases.append(clf)
        names.append(name)
    return StackingModel(variant, bases, meta, names)
