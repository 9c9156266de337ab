"""Bagging forest over CART trees with out-of-bag error tracking."""

from __future__ import annotations

import logging
import math

import numpy as np

from .trees import DecisionTree

logger = logging.getLogger("noisegate.ensemble.forest")


class RandomForest:
    """Majority vote over bootstrap-trained trees.

    Every tree t derives its own generator from (seed, t), so the forest
    is reproducible and trees could equally be trained in parallel.
    OOB votes accumulate tree by tree; oob_curve[t] is the OOB error with
    the first t+1 trees, and oob_error is the final entry.  Without
    bootstrap no row is out of bag: oob_curve stays empty, oob_error None.
    """

    def __init__(
        self,
        trees: int = 100,
        max_depth: int | None = 8,
        feature_subset: int | None = None,
        seed: int = 0,
        splitter: str = "best",
        bootstrap: bool = True,
    ):
        self.n_trees = trees
        self.max_depth = max_depth
        self.feature_subset = feature_subset
        self.seed = seed
        self.splitter = splitter
        self.bootstrap = bootstrap
        self.trees: list[DecisionTree] = []
        self.oob_curve: list[float] = []
        self.oob_error: float | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n, d = X.shape
        subset = self.feature_subset
        if subset is None:
            subset = max(1, int(math.isqrt(d)))
        self.trees = []
        self.oob_curve = []
        votes = np.zeros((n, 2), dtype=np.int64)
        covered = np.zeros(n, dtype=bool)
        for t in range(self.n_trees):
            if self.bootstrap:
                idx = np.random.default_rng([self.seed, t]).integers(0, n, size=n)
            else:
                idx = np.arange(n)
            tree = DecisionTree(
                max_depth=self.max_depth,
                feature_subset=subset,
                splitter=self.splitter,
                seed=[self.seed, t, 1],
            )
            tree.fit(X[idx], y[idx])
            self.trees.append(tree)
            if not self.bootstrap:
                continue
            oob = np.setdiff1d(np.arange(n), idx)
            if len(oob):
                pred = tree.predict(X[oob])
                votes[oob, 0] += pred == 0
                votes[oob, 1] += pred == 1
                covered[oob] = True
            if covered.any():
                maj = (votes[:, 1] > votes[:, 0]).astype(np.int64)
                err = float(np.mean(maj[covered] != y[covered]))
            else:
                err = float("nan")
            self.oob_curve.append(err)
        self.oob_error = self.oob_curve[-1] if self.oob_curve else None
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.predict_with_proba(X)[1]

    def predict_with_proba(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(majority labels, share of trees voting 1) from one vote of the
        trees."""
        if not self.trees:
            raise RuntimeError("forest not fitted")
        return majority_vote(self.trees, np.asarray(X, dtype=np.float64))


def majority_vote(members: list, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, scores) of a bag of fitted binary classifiers: a row is
    labeled 1 when more than half of the members predict 1, and its score
    is the share of members that do."""
    ones = np.zeros(len(X), dtype=np.int64)
    for member in members:
        ones += member.predict(X) == 1
    return (2 * ones > len(members)).astype(np.int64), ones / len(members)
