"""Improvement deltas, quadrants, the threshold plane, and report assembly."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisegate.evaluation.deltas import (
    BASIS_RATINGS,
    DEFAULT_PLANE,
    DeltaPoint,
    Quadrant,
    UserEval,
    _cluster_ndcg_means,
    critical_groups,
    delta_points,
    percent_positive,
    plane_positive,
    quadrant,
    read_delta_csv,
    write_delta_csv,
)


def _eval(user, ndcg=0.5, serendipity=0.5, cluster=0, **kw):
    vals = dict(precision=0.4, recall=0.3, f1=0.34)
    vals.update(kw)
    return UserEval(user, ndcg, vals["precision"], vals["recall"], vals["f1"], serendipity, cluster)


def test_quadrant_exhaustive_sign_cases():
    # zero takes the positive-sign convention; exact origin is its own label
    cases = {
        (1.0, 1.0): Quadrant.I,
        (0.0, 1.0): Quadrant.I,
        (1.0, 0.0): Quadrant.I,
        (0.0, 0.0): Quadrant.ORIGIN,
        (-1.0, 1.0): Quadrant.II,
        (-1.0, 0.0): Quadrant.II,
        (-1.0, -1.0): Quadrant.III,
        (0.0, -1.0): Quadrant.IV,
        (1.0, -1.0): Quadrant.IV,
    }
    for (x, y), want in cases.items():
        assert quadrant(x, y) is want, (x, y)


def test_plane_example_positive():
    # 0.07*0 + 0.17*0.01 = 0.0017 > 0
    assert plane_positive(0.0, 0.01, DEFAULT_PLANE)
    assert quadrant(0.0, 0.01) is Quadrant.I


def test_plane_example_negative():
    # 0.07*0.1 + 0.17*(-0.05) = -0.0015 <= 0
    assert not plane_positive(0.1, -0.05, DEFAULT_PLANE)
    assert quadrant(0.1, -0.05) is Quadrant.IV


def test_plane_boundary_not_positive():
    # a point exactly on the plane is not above it
    assert not plane_positive(0.17, -0.07, DEFAULT_PLANE)
    assert not plane_positive(0.0, 0.0, DEFAULT_PLANE)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=-1, max_value=1, allow_nan=False),
    st.floats(min_value=-1, max_value=1, allow_nan=False),
    st.integers(min_value=-3, max_value=8),
)
@example(x=0.0, y=5e-324, exponent=2)
def test_plane_scale_invariant(x, y, exponent):
    # powers of two rescale both coefficients exactly
    c = 2.0 ** exponent
    a, b = DEFAULT_PLANE
    assert plane_positive(x, y, (a, b)) == plane_positive(x, y, (c * a, c * b))


def test_critical_groups_examples():
    assert critical_groups({0: 0.2, 1: 0.4, 2: 0.9}) == pytest.approx(200.0 / 3.0, abs=1e-9)
    assert critical_groups({0: 0.5, 1: 0.5, 2: 0.5}) == 0.0
    assert critical_groups({0: 0.7}) == 0.0
    with pytest.raises(ValueError):
        critical_groups({})


def _arms():
    before = [
        _eval(1, ndcg=0.50, serendipity=0.20, cluster=0),
        _eval(2, ndcg=0.40, serendipity=0.30, cluster=1),
        _eval(3, ndcg=0.60, serendipity=0.10, cluster=0),
    ]
    after = [
        _eval(1, ndcg=0.55, serendipity=0.20, cluster=0),   # x=0, y=+0.05 -> positive, I
        _eval(2, ndcg=0.35, serendipity=0.40, cluster=1),   # x=+0.1, y=-0.05 -> negative, IV
        _eval(3, ndcg=0.60, serendipity=0.05, cluster=0),   # x=-0.05, y=0 -> negative, II
    ]
    return before, after


def test_delta_points_full_report():
    before, after = _arms()
    report = delta_points(before, after, metric="ndcg")
    assert report.metric == "ndcg"
    assert report.pair == "serendipity-ndcg"
    assert report.plane == DEFAULT_PLANE
    by_user = {p.user_id: p for p in report.points}
    p1, p2, p3 = by_user[1], by_user[2], by_user[3]
    assert p1.x == pytest.approx(0.0, abs=1e-12) and p1.y == pytest.approx(0.05, abs=1e-12)
    assert p1.positive and p1.quadrant is Quadrant.I and p1.boundary
    assert p2.x == pytest.approx(0.10, abs=1e-12) and p2.y == pytest.approx(-0.05, abs=1e-12)
    assert not p2.positive and p2.quadrant is Quadrant.IV and not p2.boundary
    assert p3.x == pytest.approx(-0.05, abs=1e-12) and p3.y == pytest.approx(0.0, abs=1e-12)
    assert not p3.positive and p3.quadrant is Quadrant.II and p3.boundary
    # one of three positive
    assert report.percent_positive == pytest.approx(100.0 / 3.0, abs=1e-9)
    # after-arm clusters: 0 -> mean(0.55, 0.60) = 0.575, 1 -> 0.35; one below mean
    assert critical_groups(_cluster_ndcg_means(after)) == pytest.approx(50.0, abs=1e-9)
    # cluster id taken from the before arm
    assert p2.cluster == 1


def test_global_means_brute_recount():
    before, after = _arms()
    report = delta_points(before, after)
    for field in ("ndcg", "precision", "recall", "f1", "serendipity"):
        want_b = sum(getattr(e, field) for e in before) / len(before)
        want_a = sum(getattr(e, field) for e in after) / len(after)
        assert report.global_before[field] == pytest.approx(want_b, abs=1e-12)
        assert report.global_after[field] == pytest.approx(want_a, abs=1e-12)


def test_percent_positive_brute_recount_users():
    before, after = _arms()
    report = delta_points(before, after)
    brute = 100.0 * sum(1 for p in report.points if p.positive) / len(report.points)
    assert report.percent_positive == pytest.approx(brute, abs=1e-12)


def test_percent_positive_ratings_basis():
    before, after = _arms()
    weights = {1: 10, 2: 30, 3: 60}
    report = delta_points(before, after, basis=BASIS_RATINGS, weights=weights)
    # only user 1 is positive: 10 of 100 ratings
    assert report.percent_positive == pytest.approx(10.0, abs=1e-9)
    brute_hit = sum(weights[p.user_id] for p in report.points if p.positive)
    brute_total = sum(weights[p.user_id] for p in report.points)
    assert report.percent_positive == pytest.approx(100.0 * brute_hit / brute_total, abs=1e-12)


def test_percent_positive_guards():
    assert percent_positive([]) == 0.0
    point = DeltaPoint(1, 0, 0.1, 0.1, Quadrant.I, True, False)
    with pytest.raises(ValueError, match="basis"):
        percent_positive([point], basis="items")
    with pytest.raises(ValueError, match="rating counts"):
        percent_positive([point], basis=BASIS_RATINGS)
    assert percent_positive([point], basis=BASIS_RATINGS, weights={}) == 0.0


def test_alternate_metric_drives_y():
    before = [_eval(1, precision=0.30, serendipity=0.5)]
    after = [_eval(1, precision=0.45, serendipity=0.5)]
    report = delta_points(before, after, metric="precision")
    assert report.points[0].y == pytest.approx(0.15, abs=1e-12)
    assert report.points[0].x == 0.0


def test_unknown_metric_raises():
    before, after = _arms()
    with pytest.raises(ValueError, match="metric"):
        delta_points(before, after, metric="rmse")


def test_mismatched_universes_raise():
    before, after = _arms()
    with pytest.raises(ValueError, match="universes differ"):
        delta_points(before, after[:2])
    with pytest.raises(ValueError, match="universes differ"):
        delta_points(before[:2], after)


def test_duplicate_users_raise():
    before, after = _arms()
    with pytest.raises(ValueError, match="duplicate"):
        delta_points(before + [before[0]], after + [after[0]])


def test_all_equal_arms_no_positives():
    before, _ = _arms()
    report = delta_points(before, list(before))
    assert report.percent_positive == 0.0
    assert all(p.quadrant is Quadrant.ORIGIN for p in report.points)
    assert all(not p.positive for p in report.points)


def test_delta_csv_roundtrip(tmp_path):
    before, after = _arms()
    report = delta_points(before, after)
    path = tmp_path / "points.csv"
    write_delta_csv(str(path), report.points)
    back = read_delta_csv(str(path))
    assert back == list(report.points)


def test_delta_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("userId,cluster\n1,0\n")
    with pytest.raises(ValueError, match="header"):
        read_delta_csv(str(path))
