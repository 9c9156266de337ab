"""Extended isolation forest: anomaly scoring with random hyperplane splits."""

from __future__ import annotations

import logging
import math

import numpy as np

logger = logging.getLogger("noisegate.ensemble.isolation")

EULER_GAMMA = 0.5772156649


def c_factor(n: int) -> float:
    """Average unsuccessful-search path length in a BST of n nodes."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    h = math.log(n - 1) + EULER_GAMMA
    return 2.0 * h - 2.0 * (n - 1) / n


class _IsoNode:
    __slots__ = ("normal", "pdotn", "left", "right", "size")

    def __init__(self):
        self.normal = None
        self.pdotn = 0.0
        self.left = None
        self.right = None
        self.size = 0


class ExtendedIsolationForest:
    """Isolation forest whose splits are random hyperplanes.

    extension_level counts the extra degrees of freedom of each split
    normal: 0 keeps exactly one nonzero coordinate (classic axis-aligned
    behavior), d-1 uses fully random normals.  None means full extension.
    predict_with_proba labels a row noisy when its score is above score_cut.
    """

    def __init__(
        self,
        trees: int = 100,
        sample_size: int = 256,
        extension_level: int | None = None,
        seed: int = 0,
        score_cut: float = 0.8,
    ):
        self.n_trees = trees
        self.sample_size = sample_size
        self.extension_level = extension_level
        self.seed = seed
        self.score_cut = score_cut
        self.trees: list[_IsoNode] = []
        self.n_features = 0
        self._c_norm = 1.0

    def fit(self, X: np.ndarray) -> "ExtendedIsolationForest":
        X = np.asarray(X, dtype=np.float64)
        if len(X) < 2:
            raise ValueError("need at least 2 points")
        n, d = X.shape
        self.n_features = d
        sample = self.sample_size
        if sample > n:
            logger.warning("sample_size %d exceeds %d points; lowering", sample, n)
            sample = n
        ext = self.extension_level if self.extension_level is not None else d - 1
        if not 0 <= ext <= d - 1:
            raise ValueError(f"extension_level must be in [0, {d - 1}]")
        depth_limit = math.ceil(math.log2(sample)) if sample > 1 else 0
        self._c_norm = c_factor(sample)
        self.trees = []
        for t in range(self.n_trees):
            rng = np.random.default_rng([self.seed, t])
            idx = rng.choice(n, size=sample, replace=False)
            self.trees.append(self._grow(X[idx], 0, depth_limit, ext, rng))
        return self

    def _grow(self, X: np.ndarray, depth: int, limit: int, ext: int,
              rng: np.random.Generator) -> _IsoNode:
        node = _IsoNode()
        node.size = len(X)
        if depth >= limit or len(X) <= 1:
            return node
        mins = X.min(axis=0)
        maxs = X.max(axis=0)
        if np.all(mins == maxs):
            return node
        d = X.shape[1]
        normal = rng.normal(size=d)
        zero_out = d - 1 - ext
        if zero_out > 0:
            normal[rng.choice(d, size=zero_out, replace=False)] = 0.0
        intercept = rng.uniform(mins, maxs)
        pdotn = float(intercept @ normal)
        proj = X @ normal
        mask = proj < pdotn
        if not mask.any() or mask.all():
            return node
        node.normal = normal
        node.pdotn = pdotn
        node.left = self._grow(X[mask], depth + 1, limit, ext, rng)
        node.right = self._grow(X[~mask], depth + 1, limit, ext, rng)
        return node

    def _path_lengths(self, node: _IsoNode, X: np.ndarray, idx: np.ndarray,
                      depth: int, out: np.ndarray) -> None:
        if node.normal is None:
            out[idx] = depth + c_factor(node.size)
            return
        # A row-by-row sum, not a BLAS product, so that a row's projection
        # does not depend on the other rows of the call.
        mask = (X[idx] * node.normal).sum(axis=1) < node.pdotn
        self._path_lengths(node.left, X, idx[mask], depth + 1, out)
        self._path_lengths(node.right, X, idx[~mask], depth + 1, out)

    def score(self, X: np.ndarray) -> np.ndarray:
        """Anomaly scores in (0, 1); higher isolates faster.  A row's score
        depends on that row alone."""
        X = np.asarray(X, dtype=np.float64)
        if not self.trees:
            raise RuntimeError("forest not fitted")
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got shape {X.shape}")
        total = np.zeros(len(X))
        for tree in self.trees:
            lengths = np.zeros(len(X))
            if len(X):
                self._path_lengths(tree, X, np.arange(len(X)), 0, lengths)
            total += lengths
        mean_depth = total / len(self.trees)
        return np.power(2.0, -mean_depth / self._c_norm)

    def predict_with_proba(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(score > score_cut as int64 labels, the scores), from one scoring pass."""
        scores = self.score(X)
        return (scores > self.score_cut).astype(np.int64), scores
