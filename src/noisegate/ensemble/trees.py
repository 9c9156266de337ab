"""CART-style decision and regression trees built on numpy.

The classification tree searches Gini-optimal thresholds over a random
feature subset per split (the forest's source of diversity); the regression
tree fits squared error and is used as the gradient-boosting base learner
with Newton leaf values.

A node's split search has two halves.  Its plan (_Plan) depends on X and
the node's rows only: the stably sorted rows of each candidate feature with
a boundary (two distinct adjacent values) in the node, and each boundary's
flat position, feature and left size.  Pricing takes cumulative sums of the
labels or gradients along those orders, prices every boundary in one array
pass and keeps the first least cost.  A regression node whose gradients
share one bit pattern reads the same sequence along every order, so one
pair of prefix sums over its rows, looked up by left size, gives every
order's sums bit for bit; boosting's nodes past a clean cut are such
nodes.  When every split searches every feature, X is presorted once per
fit and each split filters its plan down to the children that will search
(the SLIQ presort, Mehta, Agrawal & Rissanen 1996); a feature constant in
a node is constant below it, so it leaves the plan for good.  Else each
node sorts its own candidates.  A plan keeps the child plans of the split
last made at it, keyed by (feature, threshold), so gradient boosting
(Friedman 2001), which grows many trees over one X, rebuilds a plan only
below a split the previous tree did not make.
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


class _Plan:
    """The half of a node's split search that depends on X and its rows only.

    rows lists the node's rows ascending.  orders[c] lists them in stable
    order of feature features[c], for each candidate feature with a boundary
    in the node; orders is None for a node that sorts its own candidates or
    is never searched.  Boundary b lies between orders[c[b], nl[b] - 1] and
    orders[c[b], nl[b]] and has flat index at[b] into arrays of orders'
    shape.  children maps the split last made here, (feature, threshold),
    to its (left, right) plans.
    """

    __slots__ = ("rows", "orders", "features", "at", "c", "nl", "children")

    def __init__(self, rows: np.ndarray, X=None, orders=None, features=None):
        self.rows = rows
        self.orders = None
        self.children: dict = {}
        if orders is None:
            return
        xs = X[orders, features[:, None]]
        cut = xs[:, :-1] < xs[:, 1:]
        live = cut.any(axis=1)
        if not live.all():
            orders, features, cut = orders[live], features[live], cut[live]
        self.orders, self.features = orders, features
        self.c, j = np.nonzero(cut)
        self.at = self.c * len(rows) + j
        self.nl = j + 1

    def split(self, X: np.ndarray, feature: int, threshold: float, searched):
        """(left, right) plans of X[rows, feature] <= threshold.  A child
        filters this plan's orders when this plan has them and
        searched(child rows) holds; else it holds rows only."""
        left = X[self.rows, feature] <= threshold
        pair = (self.rows[left], self.rows[~left])
        if self.orders is None:
            return tuple(_Plan(rows) for rows in pair)
        goes_left = np.zeros(len(X), dtype=bool)
        goes_left[pair[0]] = True
        keep = goes_left[self.orders]
        k = len(self.orders)
        return tuple(
            _Plan(rows, X, self.orders[side].reshape(k, -1), self.features)
            if searched(rows) else _Plan(rows)
            for rows, side in zip(pair, (keep, ~keep))
        )


def root_plan(X: np.ndarray) -> _Plan:
    """The presorted plan of all of X's rows over every feature."""
    orders = np.argsort(X.T, axis=1, kind="stable")
    return _Plan(np.arange(len(X)), X, orders, np.arange(X.shape[1]))


def _best_boundary(X, plan: _Plan, below: float, cost):
    """(feature, midpoint threshold) of the plan's cheapest boundary if its
    cost is below `below`.  cost(at, c, nl) prices every boundary from
    plan.at, plan.c and plan.nl.  The first least cost in row-major order is
    where a feature-by-feature scan that keeps strict improvements only ends."""
    costs = cost(plan.at, plan.c, plan.nl)
    if len(costs) == 0 or not costs.min() < below:
        return None
    b = int(np.argmin(costs))
    c, j = plan.c[b], plan.nl[b] - 1
    f = int(plan.features[c])
    return f, float((X[plan.orders[c, j], f] + X[plan.orders[c, j + 1], f]) / 2.0)


class _Tree:
    """Growth and prediction shared by both trees; a subclass's _node returns
    a leaf, or a node whose feature and threshold split X[plan.rows], and
    its _searched(stats, rows, depth) tells whether a node over rows at
    depth searches for a split, so needs a sorted plan."""

    root: _Node | None = None
    n_features = 0
    max_depth: int | None = None

    def _grow(self, X, stats, plan: _Plan, depth: int, rng, out=None) -> _Node:
        """The subtree over X[plan.rows].  A split reuses the child plans
        cached under it at plan, and plan then keeps only those; out, when
        given, receives each row's leaf value."""
        node = self._node(X, stats, plan, depth, rng)
        if node.feature < 0:
            plan.children = {}
            if out is not None:
                out[plan.rows] = node.value
            return node
        key = (node.feature, node.threshold)
        pair = plan.children.get(key)
        if pair is None:
            pair = plan.split(X, *key, lambda rows: self._searched(stats, rows, depth + 1))
        plan.children = {key: pair}
        node.left = self._grow(X, stats, pair[0], depth + 1, rng, out)
        node.right = self._grow(X, stats, pair[1], depth + 1, rng, out)
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
        plan = root_plan(X) if presorted else _Plan(np.arange(len(y)))
        self.root = self._grow(X, y, plan, 0, rng)
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

    def _searched(self, y, rows, depth) -> bool:
        n, n1 = len(rows), int(y[rows].sum())
        return (
            n >= self.min_samples_split
            and 0 < n1 < n
            and (self.max_depth is None or depth < self.max_depth)
        )

    def _node(self, X, y, plan, depth, rng) -> _Node:
        rows = plan.rows
        ys = y[rows]
        if not self._searched(y, rows, depth):
            return self._leaf(ys)
        n = len(rows)
        n1 = int(ys.sum())
        below = float(_gini(np.array([n1]), np.array([n]))[0]) - _MIN_GAIN
        features = self._candidate_features(rng)
        if self.splitter == "random":
            split = self._random_split(X[rows][:, features], ys, features, below, rng)
        else:
            if plan.orders is None:
                orders = rows[np.argsort(X[rows][:, features].T, axis=1, kind="stable")]
                plan = _Plan(rows, X, orders, features)
            c1 = np.cumsum(y[plan.orders], axis=1)

            def weighted_gini(at, c, nl):
                n1l = c1.take(at)
                return (nl * _gini(n1l, nl) + (n - nl) * _gini(n1 - n1l, n - nl)) / n

            split = _best_boundary(X, plan, below, weighted_gini)
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
    grow() fits from a given root plan, which boosting keeps across rounds.
    """

    def __init__(self, max_depth: int = 3, min_samples_split: int = 2, eps: float = 1e-9):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.eps = eps

    def fit(self, X: np.ndarray, g: np.ndarray, h: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=np.float64)
        return self.grow(X, g, h, root_plan(X))

    def grow(self, X: np.ndarray, g, h, plan: _Plan, out: np.ndarray | None = None) -> "RegressionTree":
        """Fit float64 X from root_plan(X), which may still hold the child
        plans of earlier trees' splits; out, when given, receives every
        row's leaf value, the tree's prediction on X."""
        self.n_features = X.shape[1]
        stats = (np.asarray(g, dtype=np.float64), np.asarray(h, dtype=np.float64))
        self.root = self._grow(X, stats, plan, 0, None, out)
        return self

    def _leaf(self, g: np.ndarray, h: np.ndarray) -> _Node:
        node = _Node()
        node.value = float(g.sum() / (h.sum() + self.eps))
        return node

    def _searched(self, stats, rows, depth) -> bool:
        return len(rows) >= self.min_samples_split and depth < self.max_depth

    def _node(self, X, stats, plan, depth, rng) -> _Node:
        g, h = stats
        rows = plan.rows
        gn = g[rows]
        n = len(rows)
        if not self._searched(stats, rows, depth):
            return self._leaf(gn, h[rows])
        total_sse = float(gn @ gn) - gn.sum() ** 2 / n
        bits = gn.view(np.int64)
        if (bits == bits[0]).all():
            # Every order reads the same sequence, so one pair of prefix
            # sums, indexed by left size, gives every order's sums.
            by_nl, sq_nl = np.cumsum(gn), np.cumsum(gn * gn)

            def sums(at, c, nl):
                return by_nl[nl - 1], sq_nl[nl - 1], by_nl[-1], sq_nl[-1]
        else:
            gs = g[plan.orders]
            csum = np.cumsum(gs, axis=1)
            csq = np.cumsum(gs * gs, axis=1)

            def sums(at, c, nl):
                return csum.take(at), csq.take(at), csum[:, -1][c], csq[:, -1][c]

        def sse(at, c, nl):
            sl, ql, s, q = sums(at, c, nl)
            sr, qr = s - sl, q - ql
            return (ql - sl * sl / nl) + (qr - sr * sr / (n - nl))

        split = _best_boundary(X, plan, total_sse - _MIN_GAIN, sse)
        if split is None:
            return self._leaf(gn, h[rows])
        node = _Node()
        node.feature, node.threshold = split
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._predict(X, False, np.float64)
