"""Prediction-consistency detector."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate.board.nf3 import consistency, nf3_detect
from noisegate.dataset import Scale
from noisegate.recsys import KnnConfig

from .conftest import by_key, make_table


def test_consistency_spec_examples():
    s = Scale(0.5, 5.0)
    assert consistency(5.0, 4.0, s) == pytest.approx(1.0 / 4.5, abs=1e-9)
    assert consistency(3.0, 3.0, s) == 0.0
    assert consistency(3.0, 3.1, s) == pytest.approx(0.1 / 4.5, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(r=st.floats(0.5, 5.0), p=st.floats(0.5, 5.0))
def test_consistency_matches_brute_force(r, p):
    s = Scale(0.5, 5.0)
    assert consistency(r, p, s) == pytest.approx(abs(r - p) / 4.5, abs=1e-9)
    assert 0.0 <= consistency(r, p, s) <= 1.0


def _train_test_fixture(test_value: float):
    """Two clone neighbors force the kNN prediction for (1, 99) to 4.0."""
    train_rows = [
        (1, 1, 2.0, 0), (1, 2, 3.0, 0), (1, 3, 4.0, 0),
        # both neighbors replicate user 1 on shared items -> similarity 1.0;
        # their own means are 3.0, deviation on 99 is +1.0 -> p = 3.0 + 1.0
        (2, 1, 2.0, 0), (2, 2, 3.0, 0), (2, 3, 4.0, 0), (2, 4, 2.0, 0), (2, 99, 4.0, 0),
        (3, 1, 2.0, 0), (3, 2, 3.0, 0), (3, 3, 4.0, 0), (3, 4, 2.0, 0), (3, 99, 4.0, 0),
    ]
    train = make_table(train_rows)
    test = make_table([(1, 99, test_value, 10)])
    return train, test


def test_detect_far_rating_noisy():
    train, test = _train_test_fixture(5.0)
    cfg = KnnConfig(k=5, min_overlap=2, significance_cap=3)
    res = nf3_detect(train, test, cfg, th=0.05)
    assert by_key(test, res.predictions)[(1, 99)] == pytest.approx(4.0, abs=1e-9)
    assert by_key(test, res.consistency)[(1, 99)] == pytest.approx(1.0 / 4.5, abs=1e-9)
    assert by_key(test, res.noisy)[(1, 99)]


def test_detect_exact_match_clean():
    train, test = _train_test_fixture(4.0)
    cfg = KnnConfig(k=5, min_overlap=2, significance_cap=3)
    res = nf3_detect(train, test, cfg, th=0.05)
    assert by_key(test, res.consistency)[(1, 99)] == pytest.approx(0.0)
    assert not by_key(test, res.noisy)[(1, 99)]


def test_detect_boundary_is_strict():
    # arrange c == th bit-for-bit: the prediction is exactly 4.0, so the
    # threshold is the very expression the detector evaluates
    train, test = _train_test_fixture(4.225)
    cfg = KnnConfig(k=5, min_overlap=2, significance_cap=3)
    th = abs(4.225 - 4.0) / 4.5
    res = nf3_detect(train, test, cfg, th=th)
    assert by_key(test, res.consistency)[(1, 99)] == th
    assert not by_key(test, res.noisy)[(1, 99)]  # c > th is required


def test_detect_small_error_clean():
    train, test = _train_test_fixture(4.1)
    cfg = KnnConfig(k=5, min_overlap=2, significance_cap=3)
    res = nf3_detect(train, test, cfg, th=0.05)
    assert by_key(test, res.consistency)[(1, 99)] == pytest.approx(0.1 / 4.5, abs=1e-9)
    assert not by_key(test, res.noisy)[(1, 99)]


def test_unpredictable_is_clean_and_counted():
    train, _ = _train_test_fixture(4.0)
    test = make_table([(1, 777, 5.0, 0)])  # item unknown to every neighbor
    res = nf3_detect(train, test, KnnConfig(min_overlap=2), th=0.05)
    assert not by_key(test, res.noisy)[(1, 777)]
    assert math.isnan(by_key(test, res.consistency)[(1, 777)])
    assert res.n_unpredictable == 1


def test_user_missing_from_train_is_unpredictable():
    train, _ = _train_test_fixture(4.0)
    test = make_table([(42, 99, 5.0, 0)])
    res = nf3_detect(train, test, KnnConfig(min_overlap=2), th=0.05)
    assert not by_key(test, res.noisy)[(42, 99)]
    assert res.n_unpredictable == 1


def test_empty_train_everything_unpredictable():
    train = make_table([])
    test = make_table([(1, 1, 5.0, 0), (2, 2, 1.0, 0)])
    res = nf3_detect(train, test, KnnConfig(), th=0.05)
    assert res.n_unpredictable == 2
    assert not res.noisy.any()


def test_threshold_monotonicity():
    """Raising th never grows the noisy set."""
    train, _ = _train_test_fixture(4.0)
    test_rows = [(1, 99, 5.0, 0), (1, 4, 2.2, 0)]
    test = make_table(test_rows)
    cfg = KnnConfig(k=5, min_overlap=2, significance_cap=3)
    previous = None
    for th in (0.01, 0.05, 0.1, 0.3, 0.9):
        res = nf3_detect(train, test, cfg, th=th)
        noisy = {k for k, v in by_key(test, res.noisy).items() if v}
        if previous is not None:
            assert noisy <= previous
        previous = noisy
