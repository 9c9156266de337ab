"""Small base classifiers used by the stacking and self-training ensembles.

All of them expose fit(X, y), predict(X) -> {0,1}, and predict_proba(X) ->
probability of class 1, and none draws a random number.  A row's score
depends only on the row and the fitted model, never on the other rows of
the call.  Feature standardization, where used, is learned from the
training data.
"""

from __future__ import annotations

import numpy as np

from .boosting import _sigmoid


class _Standardizer:
    def fit(self, X: np.ndarray) -> "_Standardizer":
        self.mean = X.mean(axis=0)
        std = X.std(axis=0)
        self.std = np.where(std > 0, std, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.std


# Cells (query rows x training rows) per distance block: bounds the two
# block arrays that KnnClassifier.predict_proba holds.
_BLOCK_CELLS = 2**16


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_f a[:, f] * b[:, f] per row, summed left to right over the
    features, so a row's sum does not depend on the other rows."""
    out = np.zeros(len(a))
    for f in range(a.shape[1]):
        out += a[:, f] * b[:, f]
    return out


class KnnClassifier:
    """Euclidean kNN vote on standardized features; labels are 0 or 1.

    The distance from query q to training row x is (|q|^2 + |x|^2) - 2 q.x,
    with every sum taken left to right over the features; the k nearest
    are the k smallest by (distance, training row).  A BLAS product finds
    candidates a block of queries at a time: BLAS and this fixed order
    differ by at most E_r = 2 gamma_{F+3} (|q|^2 + max |x|^2) for query row
    r of F features, so the k nearest lie within 2 E_r of the k-th BLAS
    distance.  A row with k such candidates, or with more of one label,
    counts its positives directly; only a row with more of both labels
    (ties or near-ties) computes their fixed-order distances.  A row's
    probability therefore depends on the row alone.
    """

    def __init__(self, k: int = 5):
        self.k = k

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KnnClassifier":
        X = np.asarray(X, dtype=np.float64)
        self.scaler = _Standardizer().fit(X)
        self.X = self.scaler.transform(X)
        self.y = np.asarray(y, dtype=np.int64)
        self.sq = _row_dots(self.X, self.X)
        self.positive = np.flatnonzero(self.y == 1)
        # E_r / (|q|^2 + max |x|^2) = 2 gamma_{F+3}, where gamma_n = n u /
        # (1 - n u) bounds an n-term inner product in any order, u = 2^-53
        # (Higham).  F + 3 in place of F + 2 covers the rounding of the
        # norms and of the window's edge.
        nu = (self.X.shape[1] + 3) * 2.0**-53
        self.slack = 2.0 * nu / (1.0 - nu)
        self.sq_max = float(self.sq.max(initial=0.0))
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = self.scaler.transform(np.asarray(X, dtype=np.float64))
        sq = _row_dots(X, X)
        k = min(self.k, len(self.y))
        step = max(1, _BLOCK_CELLS // len(self.y))
        out = np.zeros(len(X))
        d2 = np.empty((min(step, len(X)), len(self.y)))
        work = np.empty_like(d2)
        for start in range(0, len(X), step):
            block = slice(start, start + step)
            n = len(X[block])
            hits = self._positives_in_k_nearest(X[block], sq[block], k, d2[:n], work[:n])
            out[block] = hits / k
        return out

    def _positives_in_k_nearest(
        self, q: np.ndarray, sq: np.ndarray, k: int, d2: np.ndarray, work: np.ndarray
    ) -> np.ndarray:
        # d2 = (|q|^2 + |x|^2) - 2 q.x with a BLAS q.x; work, which held
        # 2 q.x, then takes the partition that finds the k-th distance.
        np.matmul(q, self.X.T, out=work)
        work *= 2.0
        np.add(sq[:, None], self.sq, out=d2)
        d2 -= work
        work[...] = d2
        work.partition(k - 1, axis=1)
        reach = (work[:, k - 1] + 2.0 * self.slack * (sq + self.sq_max))[:, None]
        positives = np.count_nonzero(d2[:, self.positive] <= reach, axis=1)
        hits = np.minimum(positives, k)
        # Over k candidates need an order only when they hold both labels.
        rows = np.flatnonzero(positives)
        near = d2[rows] <= reach[rows]
        count = np.count_nonzero(near, axis=1)
        tied = (count > k) & (positives[rows] < count)
        if tied.any():
            rows = rows[tied]
            hits[rows] = self._positives_by_exact_distance(q[rows], sq[rows], near[tied], k)
        return hits

    def _positives_by_exact_distance(
        self, q: np.ndarray, sq: np.ndarray, near: np.ndarray, k: int
    ) -> np.ndarray:
        """Positives among each row's k candidates smallest by (fixed-order
        distance, training row); np.nonzero lists candidates in row order."""
        rows, cols = np.nonzero(near)
        dot = np.zeros(len(rows))
        for f in range(q.shape[1]):
            dot += q[rows, f] * self.X[cols, f]
        dist = (sq[rows] + self.sq[cols]) - 2.0 * dot
        order = np.lexsort((cols, dist, rows))
        cols = cols[order]
        rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
        taken = (rank < k) & (self.y[cols] == 1)
        return np.bincount(rows[taken], minlength=len(q))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) > 0.5).astype(np.int64)


class GaussianNB:
    """Diagonal Gaussian class-conditional model with variance smoothing."""

    VAR_SMOOTHING = 1e-9

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianNB":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.classes = np.unique(y)
        eps = self.VAR_SMOOTHING * max(float(X.var(axis=0).max()), 1.0)
        self.means = []
        self.vars = []
        self.log_priors = []
        for c in self.classes:
            Xc = X[y == c]
            self.means.append(Xc.mean(axis=0))
            self.vars.append(Xc.var(axis=0) + eps)
            self.log_priors.append(np.log(len(Xc) / len(X)))
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        jll = np.zeros((len(X), len(self.classes)))
        for k in range(len(self.classes)):
            var = self.vars[k]
            jll[:, k] = self.log_priors[k] - 0.5 * np.sum(
                np.log(2.0 * np.pi * var) + (X - self.means[k]) ** 2 / var, axis=1
            )
        return jll

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        jll = self._joint_log_likelihood(X)
        if len(self.classes) == 1:
            return np.full(len(X), float(self.classes[0]))
        jll -= jll.max(axis=1, keepdims=True)
        p = np.exp(jll)
        p /= p.sum(axis=1, keepdims=True)
        return p[:, list(self.classes).index(1)] if 1 in self.classes else np.zeros(len(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        jll = self._joint_log_likelihood(X)
        return self.classes[np.argmax(jll, axis=1)]


def _log_loss(y: np.ndarray, z: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean log loss at scores z, labels y in {0, 1}: (loss, d/dz, d2/dz2)."""
    p = _sigmoid(z)
    return float(np.mean(np.logaddexp(0.0, z) - y * z)), p - y, p * (1.0 - p)


def _squared_hinge(y: np.ndarray, z: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean max(0, 1 - t z)^2 with t = +1 / -1 for y = 1 / 0: (loss, d/dz,
    d2/dz2 of the generalized Hessian, 2 on the active set)."""
    t = 2.0 * y - 1.0
    slack = np.maximum(0.0, 1.0 - t * z)
    return float(np.mean(slack * slack)), -2.0 * t * slack, 2.0 * (slack > 0.0)


_GRAD_TOL = 1e-10
_FLAT_DECREMENT = 1e-12
_MAX_NEWTON_STEPS = 100


def _newton(Z: np.ndarray, y: np.ndarray, loss, reg: float) -> tuple[np.ndarray, float]:
    """Minimize mean(loss(y, Z w + b)) + reg/2 |w|^2 over (w, b), b unregularized.

    Newton's method with a backtracking (Armijo) line search, one (d+1) x
    (d+1) solve per step; for the squared hinge the Hessian is the
    generalized one over the active set (finite Newton).  Stops at gradient
    norm _GRAD_TOL, or when no step lowers the objective.  A step of Newton
    decrement below _FLAT_DECREMENT is taken whole: its predicted decrease
    nears the objective's rounding error, which would decide an Armijo test.
    """
    n, d = Z.shape
    A = np.hstack([Z, np.ones((n, 1))])
    penalty = np.full(d + 1, reg)
    penalty[-1] = 0.0

    def objective(theta):
        value, dz, d2z = loss(y, A @ theta)
        return value + 0.5 * float(penalty @ (theta * theta)), dz, d2z

    theta = np.zeros(d + 1)
    f, dz, d2z = objective(theta)
    for _ in range(_MAX_NEWTON_STEPS):
        grad = A.T @ dz / n + penalty * theta
        if np.linalg.norm(grad) <= _GRAD_TOL:
            break
        hess = (A.T * d2z) @ A / n + np.diag(penalty)
        step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        decrement = -float(grad @ step)
        size = 1.0
        f_new, dz, d2z = objective(theta + step)
        while f_new > f - 1e-4 * size * decrement and decrement > _FLAT_DECREMENT:
            size *= 0.5
            if size < 1e-12:
                return theta[:-1], float(theta[-1])
            f_new, dz, d2z = objective(theta + size * step)
        theta = theta + size * step
        f = f_new
    return theta[:-1], float(theta[-1])


class _LinearModel:
    """Linear score on standardized features; the subclass names the loss."""

    def __init__(self, reg: float = 1e-3):
        self.reg = reg

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_LinearModel":
        X = np.asarray(X, dtype=np.float64)
        self.scaler = _Standardizer().fit(X)
        y = (np.asarray(y) == 1).astype(np.float64)
        self.w, self.b = _newton(self.scaler.transform(X), y, self._loss, self.reg)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Z w + b per row, summed row by row: a BLAS product would round a
        row differently by the rows it is called with."""
        Z = self.scaler.transform(np.asarray(X, dtype=np.float64))
        return (Z * self.w).sum(axis=1) + self.b

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) > 0.0).astype(np.int64)


class LogisticRegression(_LinearModel):
    """L2-regularized logistic regression, fit exactly by Newton's method."""

    _loss = staticmethod(_log_loss)


class MarginClassifier(_LinearModel):
    """L2-loss (squared-hinge) linear SVM, fit exactly by finite Newton.

    Probabilities are a sigmoid squash of the signed margin, good enough
    for ranking confidence.
    """

    _loss = staticmethod(_squared_hinge)
