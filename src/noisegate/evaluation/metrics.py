"""Ranking metrics at cutoff K with binary relevance."""

from __future__ import annotations

import math

import numpy as np


def ranking_metrics(hit: np.ndarray, n_relevant: np.ndarray, K: int) -> tuple[np.ndarray, ...]:
    """nDCG, precision, recall, F1 of each user's first K recommendations,
    one array each with one value per user, in ArmEval's field order.

    hit is a (users x K) matrix whose cell [u, j] says whether user u's
    (j+1)-th recommendation is relevant (False past the end of a short list),
    and n_relevant[u] counts u's relevant items.  DCG credits a hit at
    position i (1-based) with 1/log2(i+1); the ideal ranking places
    min(K, n_relevant) hits first.  Both sums run left to right along the
    row, as a sequential sum would.  Precision divides by K regardless of
    how many items were actually recommended; recall of an empty relevant
    set is 0.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    hit = np.asarray(hit, dtype=bool)
    if hit.ndim != 2 or hit.shape[1] != K:
        raise ValueError(f"hit must have K={K} columns, got shape {hit.shape}")
    n_relevant = np.asarray(n_relevant, dtype=np.int64)
    discount = 1.0 / np.array([math.log2(i + 1) for i in range(1, K + 1)])
    dcg = np.cumsum(np.where(hit, discount, 0.0), axis=1)[:, -1]
    idcg = np.concatenate([[0.0], np.cumsum(discount)])[np.minimum(K, n_relevant)]
    hits = np.count_nonzero(hit, axis=1)
    ndcg = np.divide(dcg, idcg, out=np.zeros(len(hit)), where=idcg > 0)
    precision = hits / K
    recall = np.divide(hits, n_relevant, out=np.zeros(len(hit)), where=n_relevant > 0)
    total = precision + recall
    f1 = np.divide(2 * precision * recall, total, out=np.zeros(len(hit)), where=total > 0)
    return ndcg, precision, recall, f1
