"""Fuzzy-profile detector: triangular memberships and the min t-norm."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate.board.nf4 import (
    FuzzyProfile,
    dissim,
    manhattan,
    nf4_detect,
    nf4_fuzzify,
)
from noisegate.dataset import Scale

from .conftest import by_key, make_table

S = Scale(0.5, 5.0)


def _brute_fuzzify(r: float, scale: Scale) -> tuple[float, float, float]:
    t = (r - scale.r_min) / (scale.r_max - scale.r_min)
    low = max(0.0, 1.0 - 2.0 * t)
    high = max(0.0, 2.0 * t - 1.0)
    return low, 1.0 - low - high, high


def test_fuzzify_minimum_is_pure_low():
    assert nf4_fuzzify(0.5, S) == (1.0, 0.0, 0.0)


def test_fuzzify_midpoint_is_pure_medium():
    assert nf4_fuzzify(2.75, S) == (0.0, 1.0, 0.0)


def test_fuzzify_maximum_is_pure_high():
    assert nf4_fuzzify(5.0, S) == (0.0, 0.0, 1.0)


def test_fuzzify_quarter_point():
    # t = 0.25 -> (0.5, 0.5, 0)
    r = S.r_min + 0.25 * S.span
    got = nf4_fuzzify(r, S)
    assert got.low == pytest.approx(0.5, abs=1e-9)
    assert got.medium == pytest.approx(0.5, abs=1e-9)
    assert got.high == pytest.approx(0.0, abs=1e-9)


def test_fuzzify_outside_scale_raises():
    with pytest.raises(ValueError):
        nf4_fuzzify(5.5, S)


@settings(max_examples=80, deadline=None)
@given(r=st.floats(0.5, 5.0))
def test_fuzzify_partition_of_unity(r):
    p = nf4_fuzzify(r, S)
    low, med, high = _brute_fuzzify(r, S)
    assert p.low == pytest.approx(low, abs=1e-9)
    assert p.medium == pytest.approx(med, abs=1e-9)
    assert p.high == pytest.approx(high, abs=1e-9)
    assert p.low + p.medium + p.high == pytest.approx(1.0, abs=1e-9)
    assert min(p) >= -1e-12


def test_manhattan_examples():
    a = FuzzyProfile(1.0, 0.0, 0.0)
    b = FuzzyProfile(0.0, 0.0, 1.0)
    assert manhattan(a, b) == pytest.approx(2.0)
    assert manhattan(a, a) == 0.0
    c = FuzzyProfile(0.5, 0.5, 0.0)
    assert manhattan(a, c) == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(ra=st.floats(0.5, 5.0), rb=st.floats(0.5, 5.0))
def test_manhattan_simplex_bound_and_symmetry(ra, rb):
    a, b = nf4_fuzzify(ra, S), nf4_fuzzify(rb, S)
    d = manhattan(a, b)
    brute = abs(a.low - b.low) + abs(a.medium - b.medium) + abs(a.high - b.high)
    assert d == pytest.approx(brute, abs=1e-9)
    assert 0.0 <= d <= 2.0 + 1e-12
    assert d == pytest.approx(manhattan(b, a), abs=1e-12)


def test_dissim_maps_interval():
    a = FuzzyProfile(1.0, 0.0, 0.0)
    b = FuzzyProfile(0.0, 0.0, 1.0)
    assert dissim(a, b) == pytest.approx(1.0)  # d=2 -> 1
    assert dissim(a, a) == 0.0                  # d=0 -> clipped to 0
    c = FuzzyProfile(0.75, 0.25, 0.0)
    assert dissim(a, c) == 0.0                  # d=0.5 below 1 clips to 0
    d = FuzzyProfile(0.25, 0.75, 0.0)
    assert dissim(a, d) == pytest.approx(0.5)   # d=1.5 -> 0.5


def test_detect_identity_profiles_clean():
    # every rating 2.75 -> all profiles (0,1,0); distances 0 -> clean
    rows = [(u, i, 2.75, 0) for u in (1, 2) for i in (1, 2)]
    t = make_table(rows)
    res = nf4_detect(t)
    assert not res.noisy.any()
    assert all(d == 0.0 for d in res.noise_degree.tolist())


def test_detect_opposed_rating_noisy():
    """Rating (1,0,0) against user and item profiles near (0,0,1)."""
    rows = [
        (1, 1, 5.0, 0), (1, 2, 5.0, 0), (1, 3, 5.0, 0),
        (2, 1, 5.0, 0), (2, 2, 5.0, 0), (2, 3, 5.0, 0),
        (3, 3, 5.0, 0),
    ]
    ctx = make_table(rows)
    test = make_table([(1, 1, 0.5, 0)])
    res = nf4_detect(test, context=ctx)
    up = FuzzyProfile(*res.user_profile[0])
    ip = FuzzyProfile(*res.item_profile[0])
    assert up == (0.0, 0.0, 1.0) and ip == (0.0, 0.0, 1.0)
    # manhattan(user,item)=0 < delta1; rating profile (1,0,0): d=2 -> dissim 1
    assert by_key(test, res.noise_degree)[(1, 1)] == pytest.approx(1.0, abs=1e-9)
    assert by_key(test, res.noisy)[(1, 1)]
    assert res.n_prefiltered == 0


def test_detect_prefilter_dissimilar_profiles_clean():
    """User profile (1,0,0) vs item profile (0,0,1): d=2 >= delta1 -> clean."""
    rows = [
        (1, 2, 0.5, 0), (1, 3, 0.5, 0),        # user 1 rates everything 0.5
        (2, 1, 5.0, 0), (3, 1, 5.0, 0),        # item 1 is rated 5.0 by others
    ]
    ctx = make_table(rows)
    test = make_table([(1, 1, 5.0, 0)])
    res = nf4_detect(test, context=ctx)
    assert res.user_profile.tolist() == [[1.0, 0.0, 0.0]]
    assert res.item_profile.tolist() == [[0.0, 0.0, 1.0]]
    assert res.n_prefiltered == 1
    assert not by_key(test, res.noisy)[(1, 1)]
    assert by_key(test, res.noise_degree)[(1, 1)] == 0.0


def test_detect_noise_degree_is_min_tnorm():
    """ND must equal min(dissim(user, rating), dissim(item, rating)).

    The fixture separates the two sides: the user profile sits far from the
    rating (dissim 1/3) while the item profile sits close (dissim 0), so a
    max or user-only aggregation would flip the verdict.
    """
    rows = [
        (1, 1, 5.0, 0), (1, 2, 5.0, 0), (1, 3, 0.5, 0),
        (2, 3, 0.5, 0), (3, 3, 2.75, 0), (4, 3, 5.0, 0),
    ]
    ctx = make_table(rows)
    test = make_table([(1, 3, 0.5, 0)])
    res = nf4_detect(test, context=ctx)
    up = FuzzyProfile(*res.user_profile[0])
    ip = FuzzyProfile(*res.item_profile[0])
    assert up == pytest.approx((1 / 3, 0.0, 2 / 3), abs=1e-12)
    assert ip == pytest.approx((0.5, 0.25, 0.25), abs=1e-12)
    assert manhattan(up, ip) < 1.0  # not prefiltered
    rp = nf4_fuzzify(0.5, S)
    assert dissim(up, rp) == pytest.approx(1 / 3, abs=1e-12)
    assert dissim(ip, rp) == 0.0
    want = min(dissim(up, rp), dissim(ip, rp))
    assert by_key(test, res.noise_degree)[(1, 3)] == pytest.approx(want, abs=1e-12)
    assert not by_key(test, res.noisy)[(1, 3)]


def test_detect_boundary_delta2_strict():
    """ND == delta2 exactly stays clean."""
    rows = [
        (1, 2, 5.0, 0), (1, 3, 5.0, 0),
        (2, 1, 5.0, 0), (3, 1, 5.0, 0),
    ]
    test = make_table([(1, 1, 0.5, 0)])
    ctx = make_table(rows).merged(test)
    res = nf4_detect(test, context=ctx)
    nd = by_key(test, res.noise_degree)[(1, 1)]
    assert nd == pytest.approx(1 / 3, abs=1e-12)
    res_at = nf4_detect(test, context=ctx, delta2=nd)
    assert not by_key(test, res_at.noisy)[(1, 1)]
    res_below = nf4_detect(test, context=ctx, delta2=nd - 1e-9)
    assert by_key(test, res_below.noisy)[(1, 1)]
