"""CART-style decision and regression trees built on numpy.

The classification tree searches Gini-optimal thresholds over a random
feature subset per split (the forest's source of diversity); the regression
tree fits squared error and is used as the gradient-boosting base learner
with Newton leaf values.  A node searches all its candidate features in one
array pass over their stably sorted rows: presorted once per fit and
filtered down the tree when every split searches every feature (the SLIQ
presort, Mehta, Agrawal & Rissanen 1996), else sorted at the node.
"""

from __future__ import annotations

import numpy as np

_MIN_GAIN = 1e-12


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value", "counts")

    def __init__(self):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = 0.0
        self.counts = (0, 0)


def _gini(n1: np.ndarray, n: np.ndarray) -> np.ndarray:
    p = n1 / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def presort(X: np.ndarray) -> np.ndarray:
    """(d, n) row indices: row f lists the rows of X in stable order of feature f."""
    return np.argsort(X.T, axis=1, kind="stable")


def _best_boundary(X, order: np.ndarray, features: np.ndarray, below: float, cost):
    """(feature, midpoint threshold) of the node's cheapest split if its cost
    is below `below`.  order[c] lists the node's rows in stable order of
    features[c]; cost(at, c, nl) prices every place a split can go (flat
    index into (c, j) arrays, row c, left size nl = j + 1).  The first least
    cost in row-major order is where a feature-by-feature scan that keeps
    strict improvements only ends."""
    xs = X[order, features[:, None]]
    cut = np.zeros(xs.shape, dtype=bool)
    cut[:, :-1] = xs[:, :-1] < xs[:, 1:]
    at = np.flatnonzero(cut)
    c, j = np.divmod(at, xs.shape[1])
    costs = cost(at, c, j + 1)
    if len(costs) == 0 or not costs.min() < below:
        return None
    i = int(np.argmin(costs))
    return int(features[c[i]]), float((xs[c[i], j[i]] + xs[c[i], j[i] + 1]) / 2.0)


class _Tree:
    """Growth and prediction shared by both trees; a subclass's _node returns
    a leaf, or a node whose feature and threshold split X[rows]."""

    root: _Node | None = None
    n_features = 0

    def _grow(self, X, stats, rows: np.ndarray, orders, depth: int, rng) -> _Node:
        """The subtree over X[rows], rows ascending; orders holds every
        feature's sorted rows when the tree is presorted, else None."""
        node = self._node(X, stats, rows, orders, depth, rng)
        if node.feature < 0:
            return node
        left = X[rows, node.feature] <= node.threshold
        left_orders = right_orders = None
        if orders is not None:
            goes_left = np.zeros(len(X), dtype=bool)
            goes_left[rows[left]] = True
            keep = goes_left[orders]
            left_orders = orders[keep].reshape(len(orders), -1)
            right_orders = orders[~keep].reshape(len(orders), -1)
        node.left = self._grow(X, stats, rows[left], left_orders, depth + 1, rng)
        node.right = self._grow(X, stats, rows[~left], right_orders, depth + 1, rng)
        return node

    def _apply(self, node: _Node, X: np.ndarray, idx: np.ndarray, out: np.ndarray, proba: bool) -> None:
        if node.left is None:
            n0, n1 = node.counts
            out[idx] = (n1 / (n0 + n1)) if proba else node.value
            return
        mask = X[idx, node.feature] <= node.threshold
        self._apply(node.left, X, idx[mask], out, proba)
        self._apply(node.right, X, idx[~mask], out, proba)

    def _predict(self, X: np.ndarray, proba: bool, dtype) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if self.root is None:
            raise RuntimeError("tree not fitted")
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got shape {X.shape}")
        out = np.zeros(len(X), dtype=dtype)
        if len(X):
            self._apply(self.root, X, np.arange(len(X)), out, proba)
        return out


class DecisionTree(_Tree):
    """Binary classifier; splits minimize weighted Gini impurity.

    feature_subset limits how many features each split may consider (drawn
    without replacement per node); None means all features.  splitter
    'random' draws one uniform threshold per candidate feature instead of
    scanning all boundaries.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        feature_subset: int | None = None,
        min_samples_split: int = 2,
        splitter: str = "best",
        seed: int = 0,
    ):
        if splitter not in ("best", "random"):
            raise ValueError(f"unknown splitter {splitter!r}")
        self.max_depth = max_depth
        self.feature_subset = feature_subset
        self.min_samples_split = min_samples_split
        self.splitter = splitter
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.n_features = X.shape[1]
        rng = np.random.default_rng(self.seed)
        # With a feature subset per split, sorting every feature up front
        # costs more than sorting each node's few candidates.
        presorted = self.splitter == "best" and not self._draws_subset()
        self.root = self._grow(X, y, np.arange(len(y)), presort(X) if presorted else None, 0, rng)
        return self

    def _leaf(self, y: np.ndarray) -> _Node:
        node = _Node()
        n1 = int(y.sum())
        node.counts = (len(y) - n1, n1)
        node.value = 1 if n1 > len(y) - n1 else 0
        return node

    def _draws_subset(self) -> bool:
        return self.feature_subset is not None and self.feature_subset < self.n_features

    def _candidate_features(self, rng: np.random.Generator) -> np.ndarray:
        if not self._draws_subset():
            return np.arange(self.n_features)
        return rng.permutation(self.n_features)[: self.feature_subset]

    def _node(self, X, y, rows, orders, depth, rng) -> _Node:
        ys = y[rows]
        n = len(rows)
        n1 = int(ys.sum())
        if (
            n < self.min_samples_split
            or n1 == 0
            or n1 == n
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return self._leaf(ys)
        below = float(_gini(np.array([n1]), np.array([n]))[0]) - _MIN_GAIN
        features = self._candidate_features(rng)
        if self.splitter == "random":
            split = self._random_split(X[rows][:, features], ys, features, below, rng)
        else:
            if orders is None:
                orders = rows[np.argsort(X[rows][:, features].T, axis=1, kind="stable")]
            c1 = np.cumsum(y[orders], axis=1)

            def weighted_gini(at, c, nl):
                n1l = c1.take(at)
                return (nl * _gini(n1l, nl) + (n - nl) * _gini(n1 - n1l, n - nl)) / n

            split = _best_boundary(X, orders, features, below, weighted_gini)
        if split is None:
            return self._leaf(ys)
        node = _Node()
        node.feature, node.threshold = split
        node.counts = (n - n1, n1)
        return node

    @staticmethod
    def _random_split(xs, y, features, below: float, rng) -> tuple[int, float] | None:
        """One uniform threshold per column of xs = X[rows][:, features] (none
        where it is constant); the first least weighted Gini below `below` wins."""
        n, n1 = len(y), int(y.sum())
        lo, hi = xs.min(axis=0), xs.max(axis=0)
        drawn = np.flatnonzero(lo != hi)
        thr = rng.uniform(lo[drawn], hi[drawn])
        left = xs[:, drawn] <= thr
        nl = left.sum(axis=0)
        n1l = y @ left
        ok = (nl > 0) & (nl < n)
        nl, n1l, thr, drawn = nl[ok], n1l[ok], thr[ok], drawn[ok]
        imps = (nl * _gini(n1l, nl) + (n - nl) * _gini(n1 - n1l, n - nl)) / n
        if len(imps) == 0 or not imps.min() < below:
            return None
        i = int(np.argmin(imps))
        return int(features[drawn[i]]), float(thr[i])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._predict(X, False, np.int64)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self._predict(X, True, np.float64)


class RegressionTree(_Tree):
    """Squared-error tree over gradients with Newton leaf values.

    fit() takes per-sample gradients g and hessians h; each leaf stores
    sum(g) / (sum(h) + eps), the one-step Newton estimate used by boosting.
    """

    def __init__(self, max_depth: int = 3, min_samples_split: int = 2, eps: float = 1e-9):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.eps = eps

    def fit(
        self, X: np.ndarray, g: np.ndarray, h: np.ndarray, orders: np.ndarray | None = None
    ) -> "RegressionTree":
        """orders: presort(X), passed when many trees are fit on one X."""
        X = np.asarray(X, dtype=np.float64)
        self.n_features = X.shape[1]
        stats = (np.asarray(g, dtype=np.float64), np.asarray(h, dtype=np.float64))
        orders = presort(X) if orders is None else orders
        self.root = self._grow(X, stats, np.arange(len(X)), orders, 0, None)
        return self

    def _leaf(self, g: np.ndarray, h: np.ndarray) -> _Node:
        node = _Node()
        node.value = float(g.sum() / (h.sum() + self.eps))
        return node

    def _node(self, X, stats, rows, orders, depth, rng) -> _Node:
        g, h = stats
        gn = g[rows]
        n = len(rows)
        if n < self.min_samples_split or depth >= self.max_depth:
            return self._leaf(gn, h[rows])
        total_sse = float(gn @ gn) - gn.sum() ** 2 / n
        gs = g[orders]
        csum = np.cumsum(gs, axis=1)
        csq = np.cumsum(gs * gs, axis=1)

        def sse(at, c, nl):
            sl, ql = csum.take(at), csq.take(at)
            sr, qr = csum[:, -1][c] - sl, csq[:, -1][c] - ql
            return (ql - sl * sl / nl) + (qr - sr * sr / (n - nl))

        features = np.arange(self.n_features)
        split = _best_boundary(X, orders, features, total_sse - _MIN_GAIN, sse)
        if split is None:
            return self._leaf(gn, h[rows])
        node = _Node()
        node.feature, node.threshold = split
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._predict(X, False, np.float64)
