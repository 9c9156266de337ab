"""Accuracy-centered detector.

A rating disagreeing too strongly with its own kNN prediction is flagged.
Disagreement is measured as |r - p| normalized by the scale span, so the
threshold means the same thing on any rating scale.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..dataset import RatingsTable
# knn_predict is unused here but stays importable under this module's name:
# perfbench/spans.py wraps noisegate.board.nf3.knn_predict and .SimilarityMatrix.
from ..recsys import KnnConfig, SimilarityMatrix, knn_predict, knn_predict_rows  # noqa: F401

DEFAULT_TH = 0.05


def consistency(value: float, prediction: float, scale) -> float:
    """Normalized absolute prediction error, in [0, 1]."""
    return abs(value - prediction) / scale.span


class Nf3Result(NamedTuple):
    noisy: np.ndarray  # per test row
    consistency: np.ndarray  # per test row, NaN where unpredictable
    predictions: np.ndarray  # per test row, NaN where unpredictable
    n_unpredictable: int


def nf3_detect(
    train: RatingsTable,
    test: RatingsTable,
    cfg: KnnConfig = KnnConfig(),
    th: float = DEFAULT_TH,
) -> Nf3Result:
    """Flag test ratings whose normalized kNN prediction error exceeds th.

    Ratings the predictor cannot reach (user absent from train, item unrated
    by any neighbor, all-zero similarities) are Clean and counted as
    unpredictable: no evidence is not evidence of noise.
    """
    sims = SimilarityMatrix(train, cfg) if len(train) else None
    preds = knn_predict_rows(train, test.users, test.items, cfg, sims)
    cons = np.abs(test.values - preds) / test.scale.span
    return Nf3Result(cons > th, cons, preds, int(np.isnan(preds).sum()))
