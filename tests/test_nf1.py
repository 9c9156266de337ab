"""Homologous user/item/rating class detector."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate.board.nf1 import (
    _ITEM_CLASSES,
    _USER_CLASSES,
    HOMOLOGOUS,
    ItemClass,
    RatingClass,
    UserClass,
    classify_rating,
    nf1_classify_item,
    nf1_classify_user,
    nf1_detect,
)

from . import oracles
from .conftest import by_key, make_table


def _classes(table, res) -> tuple[dict[int, UserClass], dict[int, ItemClass]]:
    """Each user's and item's class, read from the per-row class codes."""
    return (
        {u: _USER_CLASSES[c] for u, c in zip(table.users.tolist(), res.user_class.tolist())},
        {i: _ITEM_CLASSES[c] for i, c in zip(table.items.tolist(), res.item_class.tolist())},
    )


def test_rating_class_boundaries():
    assert classify_rating(0.5) is RatingClass.WEAK
    assert classify_rating(2.4999) is RatingClass.WEAK
    assert classify_rating(2.5) is RatingClass.AVERAGE  # half-open [c1, c2)
    assert classify_rating(3.9999) is RatingClass.AVERAGE
    assert classify_rating(4.0) is RatingClass.STRONG
    assert classify_rating(5.0) is RatingClass.STRONG


def test_user_all_fives_is_benevolent():
    assert nf1_classify_user([5.0] * 7) is UserClass.BENEVOLENT


def test_user_equal_thirds_is_variable():
    # {1,3,5,1,3,5}: each class holds exactly 1/3, no strict majority
    assert nf1_classify_user([1, 3, 5, 1, 3, 5]) is UserClass.VARIABLE


def test_user_three_quarters_weak_is_critical():
    # {1,1,1,4}: 3/4 weak > 0.5
    assert nf1_classify_user([1, 1, 1, 4]) is UserClass.CRITICAL


def test_user_exact_half_is_not_majority():
    # strict inequality: 2 of 4 weak is not > 0.5 * 4
    assert nf1_classify_user([1, 1, 5, 5]) is UserClass.VARIABLE


def test_user_empty_raises():
    with pytest.raises(ValueError):
        nf1_classify_user([])


def test_item_classes_mirror_user_logic():
    assert nf1_classify_item([5, 5, 5]) is ItemClass.STRONGLY_PREFERRED
    assert nf1_classify_item([1, 1, 2]) is ItemClass.WEAKLY_PREFERRED
    assert nf1_classify_item([3, 3, 3]) is ItemClass.AVERAGELY_PREFERRED
    assert nf1_classify_item([1, 3, 5]) is ItemClass.VARIABLY_PREFERRED


def _brute_user_class(values, cuts=(2.5, 4.0), majority=0.5):
    """Independent oracle: literal set counting."""
    w = sum(1 for v in values if v < cuts[0])
    a = sum(1 for v in values if cuts[0] <= v < cuts[1])
    s = sum(1 for v in values if v >= cuts[1])
    n = len(values)
    if w > majority * n:
        return UserClass.CRITICAL
    if a > majority * n:
        return UserClass.AVERAGE
    if s > majority * n:
        return UserClass.BENEVOLENT
    return UserClass.VARIABLE


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([0.5, 1.0, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]), min_size=1, max_size=25))
def test_user_class_matches_brute_force(values):
    assert nf1_classify_user(values) is _brute_user_class(values)


def _homologous_fixture():
    """Ratings arranged so user/item classes are unambiguous.

    user 1: benevolent (mostly strong); user 2: critical (mostly weak);
    user 3: variable.  item 1: strongly preferred; item 2: weakly preferred;
    item 3: variably preferred.
    """
    rows = [
        # item 1 column: 5.0, 4.5, 5.0 -> strongly preferred
        (1, 1, 5.0, 0), (2, 1, 4.5, 0), (3, 1, 5.0, 0),
        # item 2 column: mostly weak; user 2's 4.5 is the planted violation
        (1, 2, 1.0, 0), (2, 2, 4.5, 0), (3, 2, 1.0, 0), (4, 2, 1.0, 0), (5, 2, 1.5, 0),
        # padding to fix user classes
        (1, 3, 5.0, 0), (1, 4, 5.0, 0), (1, 5, 4.5, 0),
        (2, 3, 1.0, 0), (2, 4, 1.5, 0), (2, 5, 1.0, 0), (2, 6, 2.0, 0),
        (3, 3, 3.0, 0), (3, 4, 1.0, 0),
        (4, 1, 5.0, 0), (4, 3, 5.0, 0), (4, 4, 4.5, 0),
        (5, 1, 4.5, 0), (5, 3, 2.0, 0), (5, 4, 3.0, 0),
    ]
    return make_table(rows)


def test_detect_benevolent_strong_item_strong_rating_clean():
    t = _homologous_fixture()
    res = nf1_detect(t)
    user_classes, item_classes = _classes(t, res)
    assert user_classes[1] is UserClass.BENEVOLENT
    assert item_classes[1] is ItemClass.STRONGLY_PREFERRED
    assert not by_key(t, res.noisy)[(1, 1)]


def test_detect_critical_weak_item_strong_rating_noisy():
    t = _homologous_fixture()
    res = nf1_detect(t)
    user_classes, item_classes = _classes(t, res)
    assert user_classes[2] is UserClass.CRITICAL
    assert item_classes[2] is ItemClass.WEAKLY_PREFERRED
    noisy = by_key(t, res.noisy)
    # 4.5 is Strong where the homologous group expects Weak
    assert noisy[(2, 2)]
    # the conforming weak rating from a critical user stays clean
    assert not noisy[(3, 2)] or user_classes[3] is not UserClass.CRITICAL


def test_detect_variable_user_always_clean():
    t = _homologous_fixture()
    res = nf1_detect(t)
    user_classes, _ = _classes(t, res)
    assert user_classes[3] is UserClass.VARIABLE
    for (u, i), noisy in by_key(t, res.noisy).items():
        if u == 3:
            assert not noisy


def test_detect_flags_exactly_homologous_violations():
    """Brute-force oracle over the whole fixture."""
    t = _homologous_fixture()
    res = nf1_detect(t)
    user_classes, item_classes = _classes(t, res)
    for r, noisy in zip(oracles.ratings(t), res.noisy.tolist()):
        pair = (user_classes[r.user_id], item_classes[r.item_id])
        expected = HOMOLOGOUS.get(pair)
        assert noisy == (expected is not None and classify_rating(r.value) is not expected)


def test_detect_emits_verdicts_for_test_rows_only():
    ctx = _homologous_fixture()
    test = make_table([(1, 1, 5.0, 0), (2, 2, 4.5, 0)])
    res = nf1_detect(test, context=ctx)
    assert res.noisy.shape == (len(test),)
    assert by_key(test, res.noisy)[(2, 2)]
