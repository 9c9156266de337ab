"""User clustering for group validation: k-means++ seeding plus Lloyd."""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

logger = logging.getLogger("noisegate.evaluation.clustering")

DEFAULT_K = 20
DEFAULT_MAX_ITER = 100


class ClusterAssignment(NamedTuple):
    labels: np.ndarray
    centroids: np.ndarray
    k: int
    inertia_curve: list[float]


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(X)
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[int(rng.integers(n))]
    d2 = np.sum((X - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centroids[c] = X[pick]
        d2 = np.minimum(d2, np.sum((X - centroids[c]) ** 2, axis=1))
    return centroids


def cluster_users(
    X: np.ndarray,
    k: int = DEFAULT_K,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ClusterAssignment:
    """Lloyd's algorithm with k-means++ seeding; deterministic per seed.

    X holds one vector per user, in the caller's user order, and labels[i]
    is row i's cluster; the result depends only on the rows and the seed.
    Inertia is recorded after every assignment pass and is non-increasing.
    If there are fewer users than k, k is lowered with a warning.  Empty
    clusters keep their previous centroid.
    """
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    if n == 0:
        raise ValueError("no users to cluster")
    if k > n:
        logger.warning("k=%d exceeds %d users; lowering k", k, n)
        k = n
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(X, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    prev: np.ndarray | None = None
    inertia_curve: list[float] = []
    for _ in range(max_iter):
        d2 = np.sum((X[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        inertia_curve.append(float(d2[np.arange(n), labels].sum()))
        if prev is not None and np.array_equal(labels, prev):
            break
        prev = labels
        for c in range(k):
            members = X[labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return ClusterAssignment(labels, centroids, k, inertia_curve)

