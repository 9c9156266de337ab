"""Improvement deltas, quadrants, the threshold plane, and report assembly."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisegate.evaluation.deltas import (
    BASIS_RATINGS,
    DEFAULT_PLANE,
    DELTA_HEADER,
    QUADRANTS,
    ArmEval,
    Quadrant,
    critical_groups,
    delta_points,
    global_means,
    percent_positive,
    plane_positive,
    quadrant,
    read_delta_csv,
    write_delta_csv,
)

from . import oracles


def _eval(user, ndcg=0.5, serendipity=0.5, cluster=0, **kw):
    vals = dict(precision=0.4, recall=0.3, f1=0.34)
    vals.update(kw)
    return dict(user=user, ndcg=ndcg, serendipity=serendipity, cluster=cluster, **vals)


def _arm(evals) -> ArmEval:
    return ArmEval(*(np.array([e[f] for e in evals]) for f in ArmEval._fields))


def _report(before, after, weights=None, **kw):
    """delta_points over the users of before, with their clusters; after
    lists the same users in the same order."""
    users = np.array([e["user"] for e in before])
    labels = np.array([e["cluster"] for e in before])
    if weights is not None:
        weights = np.array([weights[u] for u in users.tolist()])
    return delta_points(users, labels, _arm(before), _arm(after), weights=weights, **kw)


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
        assert QUADRANTS[quadrant(x, y)] is want, (x, y)
    xs, ys = np.array(list(cases)).T
    assert [QUADRANTS[q] for q in quadrant(xs, ys).tolist()] == list(cases.values())
    assert [QUADRANTS[q] for q in quadrant(-xs * 0.0, ys).tolist()] == [
        QUADRANTS[quadrant(0.0, y)] for y in ys.tolist()
    ]


def test_plane_example_positive():
    # 0.07*0 + 0.17*0.01 = 0.0017 > 0
    assert plane_positive(0.0, 0.01, DEFAULT_PLANE)
    assert QUADRANTS[quadrant(0.0, 0.01)] is Quadrant.I


def test_plane_example_negative():
    # 0.07*0.1 + 0.17*(-0.05) = -0.0015 <= 0
    assert not plane_positive(0.1, -0.05, DEFAULT_PLANE)
    assert QUADRANTS[quadrant(0.1, -0.05)] is Quadrant.IV


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
    # one user per cluster, so each cluster's mean is its user's value
    labels = np.array([0, 1, 2])
    assert critical_groups(labels, np.array([0.2, 0.4, 0.9])) == pytest.approx(200.0 / 3.0, abs=1e-9)
    assert critical_groups(labels, np.array([0.5, 0.5, 0.5])) == 0.0
    assert critical_groups(np.array([0]), np.array([0.7])) == 0.0
    with pytest.raises(ValueError):
        critical_groups(np.array([], dtype=np.int64), np.array([]))


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
    report = _report(before, after, metric="ndcg")
    assert report.pair == "serendipity-ndcg"
    assert report.positive.tolist() == [
        plane_positive(x, y, DEFAULT_PLANE) for x, y in zip(report.x.tolist(), report.y.tolist())
    ]
    by_user = {p.user_id: p for p in oracles.delta_records(report)}
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
    labels = np.array([e["cluster"] for e in before])
    assert critical_groups(labels, _arm(after).ndcg) == pytest.approx(50.0, abs=1e-9)
    # cluster id taken from the before arm
    assert p2.cluster == 1


def test_global_means_brute_recount():
    before, after = _arms()
    global_before, global_after = global_means(_arm(before)), global_means(_arm(after))
    assert list(global_before) == list(global_after) == list(ArmEval._fields)
    for field in ("ndcg", "precision", "recall", "f1", "serendipity"):
        want_b = sum(e[field] for e in before) / len(before)
        want_a = sum(e[field] for e in after) / len(after)
        assert global_before[field] == pytest.approx(want_b, abs=1e-12)
        assert global_after[field] == pytest.approx(want_a, abs=1e-12)


def test_percent_positive_brute_recount_users():
    before, after = _arms()
    report = _report(before, after)
    points = oracles.delta_records(report)
    brute = 100.0 * sum(1 for p in points if p.positive) / len(points)
    assert report.percent_positive == pytest.approx(brute, abs=1e-12)


def test_percent_positive_ratings_basis():
    before, after = _arms()
    weights = {1: 10, 2: 30, 3: 60}
    report = _report(before, after, basis=BASIS_RATINGS, weights=weights)
    # only user 1 is positive: 10 of 100 ratings
    assert report.percent_positive == pytest.approx(10.0, abs=1e-9)
    points = oracles.delta_records(report)
    brute_hit = sum(weights[p.user_id] for p in points if p.positive)
    brute_total = sum(weights[p.user_id] for p in points)
    assert report.percent_positive == pytest.approx(100.0 * brute_hit / brute_total, abs=1e-12)


def test_percent_positive_guards():
    assert percent_positive([]) == 0.0
    with pytest.raises(ValueError, match="basis"):
        percent_positive([True], basis="items")
    with pytest.raises(ValueError, match="rating counts"):
        percent_positive([True], basis=BASIS_RATINGS)
    assert percent_positive([True], basis=BASIS_RATINGS, weights=np.array([0])) == 0.0


def test_alternate_metric_drives_y():
    before = [_eval(1, precision=0.30, serendipity=0.5)]
    after = [_eval(1, precision=0.45, serendipity=0.5)]
    report = _report(before, after, metric="precision")
    assert report.y[0] == pytest.approx(0.15, abs=1e-12)
    assert report.x[0] == 0.0


def test_unknown_metric_raises():
    before, after = _arms()
    with pytest.raises(ValueError, match="metric"):
        _report(before, after, metric="rmse")


def test_all_equal_arms_no_positives():
    before, _ = _arms()
    report = _report(before, list(before))
    assert report.percent_positive == 0.0
    assert (report.quadrant == QUADRANTS.index(Quadrant.ORIGIN)).all()
    assert not report.positive.any()


def test_delta_csv_roundtrip(tmp_path):
    before, after = _arms()
    report = _report(before, after)
    path = tmp_path / "points.csv"
    write_delta_csv(path, report)
    back = read_delta_csv(path)
    columns = (report.users, report.clusters, report.x, report.y, report.quadrant, report.positive)
    assert [(a.dtype, a.tolist()) for a in back] == [(a.dtype, a.tolist()) for a in columns]


def test_delta_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("userId,cluster\n1,0\n")
    with pytest.raises(ValueError, match="header"):
        read_delta_csv(str(path))


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,0,0.5,0.5,V,true", "('V', 'true') are not a Quadrant value"),
        ("1,0,0.5,0.5,Origin,True", "('Origin', 'True') are not a Quadrant value"),
    ],
    ids=["other-quadrant", "other-positive"],
)
def test_delta_csv_rejects_malformed_cells(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(DELTA_HEADER) + "\r\n0,0,0.0,0.0,Origin,false\r\n" + row + "\r\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: {message}")):
        read_delta_csv(path)
