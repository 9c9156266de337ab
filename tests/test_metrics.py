"""Ranking metrics at cutoff K."""

from __future__ import annotations

import math

import numpy as np
import pytest

from noisegate.evaluation.metrics import ranking_metrics

from .oracles import ranking_metrics_loop


def _metrics(items, relevant, K):
    """(nDCG, precision, recall, F1) of one user's list, from ranking_metrics
    of a one-row hit matrix."""
    hit = np.zeros((1, max(K, 0)), dtype=bool)
    for j, item in enumerate(list(items)[:K]):
        hit[0, j] = item in relevant
    return tuple(float(v[0]) for v in ranking_metrics(hit, [len(relevant)], K))


def test_perfect_ranking_any_order():
    m = _metrics([3, 1, 4, 2], {1, 2, 3, 4}, K=4)
    assert m == (1.0, 1.0, 1.0, 1.0)


def test_zero_hits_all_zero():
    m = _metrics([10, 11, 12], {1, 2}, K=3)
    assert m == (0.0, 0.0, 0.0, 0.0)


def test_single_hit_at_position_three():
    m = _metrics([10, 11, 7, 12, 13], {7}, K=5)
    assert m == pytest.approx(((1.0 / math.log2(4)) / 1.0, 0.2, 1.0, 2 * 0.2 * 1.0 / 1.2), abs=1e-12)
    assert m[0] == pytest.approx(0.5, abs=1e-12)


def test_empty_relevant_set():
    m = _metrics([1, 2, 3], set(), K=3)
    assert m == (0.0, 0.0, 0.0, 0.0)


def test_only_first_k_positions_count():
    # the hit sits at position K+1, outside the window
    m = _metrics([10, 11, 7], {7}, K=2)
    assert m == (0.0, 0.0, 0.0, 0.0)


def test_k_larger_than_list():
    # precision divides by K even when fewer items were recommended
    m = _metrics([7], {7}, K=5)
    assert m[:3] == pytest.approx((1.0, 0.2, 1.0), abs=1e-12)


def test_more_relevant_than_k():
    # ideal ranking saturates at K hits
    m = _metrics([1, 2], {1, 2, 3, 4}, K=2)
    assert m[:3] == pytest.approx((1.0, 1.0, 0.5), abs=1e-12)


def test_invalid_k_raises():
    with pytest.raises(ValueError, match="K"):
        _metrics([1], {1}, K=0)


def test_random_fixtures_match_brute_force():
    rng = np.random.default_rng(707)
    for trial in range(25):
        n_items = int(rng.integers(1, 15))
        items = list(rng.choice(100, size=n_items, replace=False))
        relevant = {int(i) for i in rng.choice(100, size=int(rng.integers(0, 10)), replace=False)}
        K = int(rng.integers(1, 12))
        got = _metrics(items, relevant, K)
        want = ranking_metrics_loop(items, relevant, K)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9)
            assert 0.0 <= g <= 1.0 + 1e-12
