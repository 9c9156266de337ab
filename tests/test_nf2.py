"""Quantity/coherence grouping and the rating-noisy-degree detector."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate.board.nf2 import (
    DEFAULT_COHERENCE_CUT,
    Quantity,
    _coherence,
    _groups,
    nf2_detect,
    nf2_rnd,
)
from noisegate.dataset import GenreMap, RatingsTable

from .conftest import by_key, make_genres, make_table

VOCAB = ("Action", "Comedy", "Drama")


def nf2_group_user(
    user: int, table: RatingsTable, genres: GenreMap, coherence_cut: float = DEFAULT_COHERENCE_CUT
) -> tuple[Quantity, bool]:
    """(quantity, whether the quality is easy) of one user, from the pass over the whole table."""
    users, quantity, easy = _groups(table, genres, coherence_cut)[:3]
    k = users.tolist().index(user)
    return list(Quantity)[quantity[k]], bool(easy[k])


def _row_group(res, table: RatingsTable, user: int) -> tuple[Quantity, bool]:
    """(quantity, easy) that nf2_detect gave every row of one user."""
    rows = table.users == user
    groups = set(zip(res.quantity[rows].tolist(), res.easy[rows].tolist()))
    assert len(groups) == 1
    quantity, easy = groups.pop()
    return list(Quantity)[quantity], easy


def user_coherence(user: int, table: RatingsTable, genres: GenreMap) -> tuple[float, bool]:
    """(coherence, had_genres) of one user, from the pass over the whole table."""
    users, coherence, had = _coherence(table, genres)[:3]
    k = users.tolist().index(user)
    return float(coherence[k]), bool(had[k])


def _population_table():
    """Counts {10, 100, 1000} across three users, one shared genre."""
    genres = make_genres({i: ("Action",) for i in range(1, 1101)}, VOCAB)
    rows = []
    rows += [(1, i, 3.0, 0) for i in range(1, 11)]
    rows += [(2, i, 3.0, 0) for i in range(1, 101)]
    rows += [(3, i, 3.0, 0) for i in range(1, 1001)]
    return make_table(rows), genres


def test_quantity_terciles():
    t, genres = _population_table()
    assert nf2_group_user(3, t, genres)[0] is Quantity.HEAVY
    assert nf2_group_user(1, t, genres)[0] is Quantity.LIGHT
    assert nf2_group_user(2, t, genres)[0] is Quantity.MEDIUM


def test_constant_rater_has_coherence_one_easy():
    genres = make_genres({i: ("Action",) for i in range(1, 6)}, VOCAB)
    rows = [(1, i, 4.0, 0) for i in range(1, 6)]
    t = make_table(rows)
    coherence, had = user_coherence(1, t, genres)
    assert had and coherence == pytest.approx(1.0)
    assert nf2_group_user(1, t, genres)[1]  # easy


def test_alternating_extremes_is_difficult():
    # 4 same-genre items rated 1,5,1,5: genre mean 3, deviation 2/4.5 each
    genres = make_genres({i: ("Action",) for i in range(1, 5)}, VOCAB)
    rows = [(1, 1, 1.0, 0), (1, 2, 5.0, 0), (1, 3, 1.0, 0), (1, 4, 5.0, 0)]
    t = make_table(rows)
    coherence, had = user_coherence(1, t, genres)
    assert had
    # independent oracle: every item deviates |r-3| = 2, normalized by span 4.5
    assert coherence == pytest.approx(1.0 - 2.0 / 4.5, abs=1e-9)
    assert coherence < 0.8
    assert not nf2_group_user(1, t, genres)[1]  # difficult


def test_genreless_user_defaults_easy(caplog):
    genres = make_genres({}, VOCAB)  # nothing mapped: all items genre-less
    rows = [(1, 1, 1.0, 0), (1, 2, 5.0, 0)]
    t = make_table(rows)
    with caplog.at_level("WARNING"):
        _, easy = nf2_group_user(1, t, genres)
    assert easy


def _brute_rnd(value, means, theta, eps=1e-12):
    if not means:
        return 0.0
    hits = sum(1 for m in means if abs(value - m) / max(m, eps) >= theta)
    return hits / len(means)


def test_rnd_spec_example():
    # means {Action: 4.0, Comedy: 2.0}, r = 4.2, theta = 0.075
    # deviations: |4.2-4|/4 = 0.05 < theta; |4.2-2|/2 = 1.1 >= theta -> 1 of 2
    assert nf2_rnd(4.2, {"Action": 4.0, "Comedy": 2.0}, 0.075) == pytest.approx(0.5, abs=1e-9)


def test_rnd_rating_equal_to_means_is_zero():
    assert nf2_rnd(3.0, {"Action": 3.0, "Drama": 3.0}, 0.075) == 0.0


def test_rnd_all_deviant_is_one():
    assert nf2_rnd(5.0, {"Action": 1.0, "Drama": 1.0, "Comedy": 1.0}, 0.075) == 1.0


def test_rnd_no_countable_genre_is_zero():
    assert nf2_rnd(4.0, {}, 0.075) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    value=st.floats(0.5, 5.0),
    means=st.lists(st.floats(0.5, 5.0), min_size=0, max_size=6),
    theta=st.floats(0.01, 0.5),
)
def test_rnd_matches_brute_force(value, means, theta):
    got = nf2_rnd(value, means, theta)
    assert got == pytest.approx(_brute_rnd(value, means, theta), abs=1e-9)
    assert 0.0 <= got <= 1.0


def _detect_fixture():
    """Three-quantity population where user 3 (heavy) has one wild rating."""
    genres = make_genres({i: ("Action",) for i in range(1, 1101)}, VOCAB)
    rows = []
    rows += [(1, i, 3.0, 0) for i in range(1, 11)]          # light
    rows += [(2, i, 3.0, 0) for i in range(1, 101)]         # medium, coherent
    rows += [(3, i, 4.0, 0) for i in range(1, 1000)]        # heavy, coherent
    rows += [(3, 1000, 0.5, 0)]                              # planted deviant
    return make_table(rows), genres


def test_detect_medium_easy_always_clean():
    t, genres = _detect_fixture()
    res = nf2_detect(t, genres)
    assert _row_group(res, t, 2) == (Quantity.MEDIUM, True)
    for (u, i), noisy in by_key(t, res.noisy).items():
        if u == 2:
            assert not noisy


def test_detect_heavy_deviant_rating_noisy():
    t, genres = _detect_fixture()
    res = nf2_detect(t, genres)
    assert _row_group(res, t, 3)[0] is Quantity.HEAVY
    # leave-one-out genre mean stays ~4.0; |0.5-4|/4 = 0.875 >= theta -> RND 1
    assert by_key(t, res.rnd)[(3, 1000)] == pytest.approx(1.0)
    assert by_key(t, res.noisy)[(3, 1000)]
    assert not by_key(t, res.noisy)[(3, 1)]


def test_detect_rnd_exactly_at_cut_is_clean():
    # single genre -> RND is 0 or 1; build a two-genre case landing on 0.5
    genres = make_genres(
        {1: ("Action",), 2: ("Comedy",), 3: ("Action", "Comedy")}, VOCAB
    )
    rows = [
        (1, 1, 4.0, 0),   # Action mean 4.0
        (1, 2, 2.0, 0),   # Comedy mean 2.0
        (1, 3, 4.2, 0),   # deviations 0.05 (miss), 1.1 (hit) -> RND 0.5
    ]
    t = make_table(rows)
    # the single user lands in the light tercile; align its theta with the
    # worked example so the 0.05 relative deviation stays under threshold
    res = nf2_detect(t, genres, theta_light=0.075, rnd_cut=0.5)
    assert by_key(t, res.rnd)[(1, 3)] == pytest.approx(0.5, abs=1e-9)
    # strict inequality: RND == cut stays clean regardless of group
    assert not by_key(t, res.noisy)[(1, 3)]


def test_detect_leave_one_out_excludes_own_rating():
    genres = make_genres({1: ("Action",), 2: ("Action",)}, VOCAB)
    rows = [(1, 1, 5.0, 0), (1, 2, 1.0, 0)]
    t = make_table(rows)
    res = nf2_detect(t, genres, rnd_cut=0.5)
    # for (1,1): LOO Action mean is 1.0 -> |5-1|/1 = 4 -> RND 1 -> noisy
    assert by_key(t, res.rnd)[(1, 1)] == pytest.approx(1.0)
    assert by_key(t, res.noisy)[(1, 1)]


def test_detect_genre_known_only_through_this_rating_skipped():
    # item 2 is the user's only Comedy: that genre has no LOO mean
    genres = make_genres({1: ("Action",), 2: ("Comedy", "Action")}, VOCAB)
    rows = [(1, 1, 4.0, 0), (1, 2, 4.0, 0)]
    t = make_table(rows)
    res = nf2_detect(t, genres)
    # only the Action mean (4.0 after LOO) is countable; deviation 0 -> RND 0
    assert by_key(t, res.rnd)[(1, 2)] == pytest.approx(0.0)
    assert not by_key(t, res.noisy)[(1, 2)]
