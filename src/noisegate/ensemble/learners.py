"""Small base classifiers used by the stacking and self-training ensembles.

All of them expose fit(X, y), predict(X) -> {0,1}, and predict_proba(X) ->
probability of class 1, and all are deterministic for a fixed seed.
Feature standardization, where used, is learned from the training data.
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


class KnnClassifier:
    """Euclidean kNN vote on standardized features."""

    def __init__(self, k: int = 5, seed: int = 0):
        self.k = k
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KnnClassifier":
        X = np.asarray(X, dtype=np.float64)
        self.scaler = _Standardizer().fit(X)
        self.X = self.scaler.transform(X)
        self.y = np.asarray(y, dtype=np.int64)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = self.scaler.transform(np.asarray(X, dtype=np.float64))
        k = min(self.k, len(self.y))
        out = np.zeros(len(X))
        train_sq = np.sum(self.X**2, axis=1)
        for start in range(0, len(X), 512):
            chunk = X[start : start + 512]
            d2 = np.sum(chunk**2, axis=1)[:, None] + train_sq[None, :] - 2.0 * chunk @ self.X.T
            nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
            out[start : start + 512] = self.y[nearest].mean(axis=1)
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) > 0.5).astype(np.int64)


class GaussianNB:
    """Diagonal Gaussian class-conditional model with variance smoothing."""

    VAR_SMOOTHING = 1e-9

    def __init__(self, seed: int = 0):
        self.seed = seed

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


class LogisticRegression:
    """L2-regularized logistic regression fit by full-batch gradient descent."""

    def __init__(self, lr: float = 0.5, iters: int = 500, reg: float = 1e-3, seed: int = 0):
        self.lr = lr
        self.iters = iters
        self.reg = reg
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.scaler = _Standardizer().fit(X)
        Z = self.scaler.transform(X)
        n, d = Z.shape
        self.w = np.zeros(d)
        self.b = 0.0
        for _ in range(self.iters):
            p = _sigmoid(Z @ self.w + self.b)
            err = p - y
            self.w -= self.lr * (Z.T @ err / n + self.reg * self.w)
            self.b -= self.lr * float(err.mean())
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        Z = self.scaler.transform(np.asarray(X, dtype=np.float64))
        return Z @ self.w + self.b

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) > 0.0).astype(np.int64)


class MarginClassifier:
    """Linear hinge-loss classifier trained by seeded subgradient descent.

    A kernel-free margin learner; probabilities are a sigmoid squash of the
    signed margin, good enough for ranking confidence.
    """

    def __init__(self, epochs: int = 50, lr: float = 0.1, reg: float = 1e-3, seed: int = 0):
        self.epochs = epochs
        self.lr = lr
        self.reg = reg
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MarginClassifier":
        X = np.asarray(X, dtype=np.float64)
        t = np.where(np.asarray(y, dtype=np.int64) == 1, 1.0, -1.0)
        self.scaler = _Standardizer().fit(X)
        Z = self.scaler.transform(X)
        n, d = Z.shape
        self.w = np.zeros(d)
        self.b = 0.0
        rng = np.random.default_rng(self.seed)
        for epoch in range(self.epochs):
            step = self.lr / (1.0 + 0.1 * epoch)
            for i in rng.permutation(n).tolist():
                margin = t[i] * (Z[i] @ self.w + self.b)
                if margin < 1.0:
                    self.w += step * (t[i] * Z[i] - self.reg * self.w)
                    self.b += step * t[i]
                else:
                    self.w -= step * self.reg * self.w
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        Z = self.scaler.transform(np.asarray(X, dtype=np.float64))
        return Z @ self.w + self.b

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) > 0.0).astype(np.int64)


class SgdLogLoss:
    """Linear logistic model trained one sample at a time in seeded order."""

    def __init__(self, epochs: int = 30, lr: float = 0.1, reg: float = 1e-4, seed: int = 0):
        self.epochs = epochs
        self.lr = lr
        self.reg = reg
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SgdLogLoss":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.scaler = _Standardizer().fit(X)
        Z = self.scaler.transform(X)
        n, d = Z.shape
        self.w = np.zeros(d)
        self.b = 0.0
        rng = np.random.default_rng(self.seed)
        for epoch in range(self.epochs):
            step = self.lr / (1.0 + 0.1 * epoch)
            for i in rng.permutation(n).tolist():
                p = float(_sigmoid(np.array([Z[i] @ self.w + self.b]))[0])
                err = p - y[i]
                self.w -= step * (err * Z[i] + self.reg * self.w)
                self.b -= step * err
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        Z = self.scaler.transform(np.asarray(X, dtype=np.float64))
        return Z @ self.w + self.b

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) > 0.0).astype(np.int64)
