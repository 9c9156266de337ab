"""Opt-out signature detection and removal actions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisegate.board.verdict import Verdict
from noisegate.signature import (
    DENOMINATOR_GLOBAL_NOISE,
    DENOMINATOR_LAST_DAY,
    OPTOUT_SIGNATURE_ID,
    SignatureAction,
    SignatureHit,
    apply_signature_action,
    detect_optout,
    read_hits,
    utc_day,
    write_hits,
)

from . import oracles
from .conftest import make_table, noisy_flags

DAY = 86400


def _optout(table, labels, **kwargs):
    """detect_optout with the labels given by (user, item) key."""
    return detect_optout(table, noisy_flags(table, labels), **kwargs)


def _last_day_user(user, n_day, n_noisy, n_earlier=0, base_item=0):
    """Rows and labels for one user: n_earlier ratings on day 0, n_day on day 1."""
    rows = []
    labels = {}
    item = base_item
    for _ in range(n_earlier):
        item += 1
        rows.append((user, item, 3.0, item))
        labels[(user, item)] = Verdict.CLEAN
    for j in range(n_day):
        item += 1
        rows.append((user, item, 3.0, DAY + item))
        labels[(user, item)] = Verdict.NOISY if j < n_noisy else Verdict.CLEAN
    return rows, labels


def test_utc_day_boundaries():
    assert utc_day(0) == "1970-01-01"
    assert utc_day(DAY - 1) == "1970-01-01"
    assert utc_day(DAY) == "1970-01-02"


def test_six_of_ten_noisy_fires():
    rows, labels = _last_day_user(1, n_day=10, n_noisy=6, n_earlier=2)
    hits = _optout(make_table(rows), labels)
    assert len(hits) == 1
    hit = hits[0]
    assert hit.signature_id == OPTOUT_SIGNATURE_ID
    assert hit.user_id == 1
    assert hit.evidence["noisy_count"] == 6
    assert hit.evidence["total_count"] == 10
    assert hit.evidence["ratio"] == pytest.approx(0.6, abs=1e-12)
    assert hit.evidence["last_day"] == "1970-01-02"


def test_half_noisy_is_strictly_below():
    rows, labels = _last_day_user(1, n_day=10, n_noisy=5)
    assert _optout(make_table(rows), labels) == []


def test_zero_noisy_never_fires():
    rows, labels = _last_day_user(1, n_day=7, n_noisy=0, n_earlier=3)
    table = make_table(rows)
    assert _optout(table, labels) == []
    assert _optout(table, labels, denominator=DENOMINATOR_GLOBAL_NOISE) == []


def test_denominator_variants_disagree():
    # last day: single noisy rating; nine earlier noisy ratings elsewhere
    rows = [(1, i, 3.0, i) for i in range(1, 10)]
    rows.append((1, 10, 3.0, DAY + 10))
    labels = {(1, i): Verdict.NOISY for i in range(1, 11)}
    table = make_table(rows)
    by_day = _optout(table, labels, denominator=DENOMINATOR_LAST_DAY)
    assert [h.user_id for h in by_day] == [1]
    assert by_day[0].evidence["ratio"] == 1.0
    by_global = _optout(table, labels, denominator=DENOMINATOR_GLOBAL_NOISE)
    # 1 noisy on the day over 10 noisy overall
    assert by_global == []


def test_global_denominator_counts_all_noise():
    # 3 of 3 noisy on the last day, one more noisy earlier: 3/4 > 0.5
    rows = [(1, 1, 3.0, 5), (1, 2, 3.0, 6)]
    rows += [(1, i, 3.0, DAY + i) for i in (3, 4, 5)]
    labels = {
        (1, 1): Verdict.NOISY,
        (1, 2): Verdict.CLEAN,
        (1, 3): Verdict.NOISY,
        (1, 4): Verdict.NOISY,
        (1, 5): Verdict.NOISY,
    }
    hits = _optout(make_table(rows), labels, denominator=DENOMINATOR_GLOBAL_NOISE)
    assert len(hits) == 1
    assert hits[0].evidence["ratio"] == pytest.approx(0.75, abs=1e-12)


def test_unknown_denominator_raises():
    rows, labels = _last_day_user(1, n_day=2, n_noisy=2)
    with pytest.raises(ValueError):
        _optout(make_table(rows), labels, denominator="per_week")


def test_unlabeled_rating_raises():
    rows, labels = _last_day_user(1, n_day=4, n_noisy=4)
    table = make_table(rows)
    flags = noisy_flags(table, labels)
    for wrong in (flags[:-1], np.append(flags, True), flags.reshape(1, -1)):
        with pytest.raises(ValueError, match="expected 4 noisy flags"):
            detect_optout(table, wrong)


def test_multiple_users_independent():
    rows1, labels1 = _last_day_user(1, n_day=4, n_noisy=4)
    rows2, labels2 = _last_day_user(2, n_day=4, n_noisy=1, base_item=100)
    hits = _optout(make_table(rows1 + rows2), {**labels1, **labels2})
    assert [h.user_id for h in hits] == [1]


def test_remove_user_drops_all_ratings():
    rows, labels = _last_day_user(1, n_day=10, n_noisy=10, n_earlier=70)
    other = [(2, 500 + i, 4.0, i) for i in range(5)]
    table = make_table(rows + other)
    hits = _optout(table, {**labels, **{(2, 500 + i): Verdict.CLEAN for i in range(5)}})
    assert [h.user_id for h in hits] == [1]
    out = apply_signature_action(table, hits, SignatureAction.REMOVE_USER)
    assert len(table) - len(out) == 80
    assert out.user_ids() == [2]


def test_no_hits_leaves_table_unchanged():
    rows, labels = _last_day_user(1, n_day=10, n_noisy=0)
    table = make_table(rows)
    out = apply_signature_action(table, [], SignatureAction.REMOVE_USER)
    assert out.rows() == table.rows()


def test_remove_last_day_keeps_earlier_ratings():
    rows, labels = _last_day_user(1, n_day=10, n_noisy=10, n_earlier=70)
    table = make_table(rows)
    hits = _optout(table, labels)
    out = apply_signature_action(table, hits, SignatureAction.REMOVE_LAST_DAY)
    assert len(out) == 70
    assert all(utc_day(t) == "1970-01-01" for _, _, _, t in out.rows())


def test_default_action_is_remove_user():
    rows, labels = _last_day_user(1, n_day=3, n_noisy=3, n_earlier=2)
    table = make_table(rows)
    hits = _optout(table, labels)
    assert len(apply_signature_action(table, hits)) == 0


def test_removal_idempotent():
    rows, labels = _last_day_user(1, n_day=10, n_noisy=8, n_earlier=20)
    other = [(2, 900, 4.0, DAY + 1)]
    table = make_table(rows + other)
    hits = _optout(table, {**labels, (2, 900): Verdict.CLEAN})
    for action in SignatureAction:
        once = apply_signature_action(table, hits, action)
        twice = apply_signature_action(once, hits, action)
        assert twice.rows() == once.rows()


def test_label_monotone_under_default_denominator():
    # flipping any Clean label to Noisy never removes a hit
    rows, labels = _last_day_user(1, n_day=6, n_noisy=4, n_earlier=4)
    table = make_table(rows)
    base = {h.user_id for h in _optout(table, labels)}
    assert base == {1}
    for key, verdict in labels.items():
        if verdict is Verdict.NOISY:
            continue
        bumped = dict(labels)
        bumped[key] = Verdict.NOISY
        now = {h.user_id for h in _optout(table, bumped)}
        assert base <= now


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.data())
def test_ratio_at_threshold_never_fires(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    rows, labels = _last_day_user(1, n_day=n, n_noisy=k)
    hits = _optout(make_table(rows), labels, threshold=k / n)
    assert hits == []


@st.composite
def _labeled_tables(draw):
    """Up to six users, each with one to eight ratings whose timestamps fall
    on and around UTC midnights from three days before the epoch to two
    after, and a label per rating."""
    rows, labels = [], {}
    for user in range(draw(st.integers(1, 6))):
        for item in range(draw(st.integers(1, 8))):
            day = draw(st.integers(-3, 2))
            stamp = day * DAY + draw(st.sampled_from([-1, 0, 1, DAY // 2, DAY - 1]))
            rows.append((user, item, 3.0, stamp))
            labels[(user, item)] = draw(st.sampled_from([Verdict.NOISY, Verdict.CLEAN]))
    return make_table(rows), labels


@settings(max_examples=300, deadline=None)
@given(case=_labeled_tables(), denominator=st.sampled_from(
    [DENOMINATOR_LAST_DAY, DENOMINATOR_GLOBAL_NOISE]
), data=st.data())
@example(
    case=(make_table([(1, 1, 3.0, -1), (1, 2, 3.0, 0), (2, 1, 3.0, -DAY)]),
          {(1, 1): Verdict.NOISY, (1, 2): Verdict.NOISY, (2, 1): Verdict.CLEAN}),
    denominator=DENOMINATOR_LAST_DAY, data=None,
)
def test_detect_optout_matches_loop_oracle(case, denominator, data):
    table, labels = case
    # Thresholds at every ratio some user reaches, so ties at the threshold are drawn.
    every = oracles.detect_optout_loop(table, labels, -1.0, denominator)
    ratios = [h.evidence["ratio"] for h in every]
    threshold = 0.5 if data is None else data.draw(st.sampled_from([0.0, 0.5, 1.0, *ratios]))
    got = detect_optout(table, noisy_flags(table, labels), threshold, denominator)
    want = oracles.detect_optout_loop(table, labels, threshold, denominator)
    assert got == want
    assert [h.evidence["ratio"].hex() for h in got] == [h.evidence["ratio"].hex() for h in want]
    assert all(type(v) is type(w) for a, b in zip(got, want)
               for v, w in zip(a.evidence.values(), b.evidence.values()))


def test_hits_csv_roundtrip(tmp_path):
    rows1, labels1 = _last_day_user(1, n_day=10, n_noisy=6)
    rows2, labels2 = _last_day_user(2, n_day=3, n_noisy=3, base_item=50)
    table = make_table(rows1 + rows2)
    hits = _optout(table, {**labels1, **labels2})
    assert len(hits) == 2
    path = tmp_path / "hits.csv"
    write_hits(hits, SignatureAction.REMOVE_LAST_DAY, path)
    back, action = read_hits(path)
    assert action is SignatureAction.REMOVE_LAST_DAY
    assert back == sorted(hits, key=lambda h: (h.signature_id, h.user_id))


def test_read_hits_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("userId,ratio\n1,0.6\n")
    with pytest.raises(ValueError, match="header"):
        read_hits(path)


def test_empty_hits_roundtrip(tmp_path):
    path = tmp_path / "none.csv"
    write_hits([], SignatureAction.REMOVE_USER, path)
    back, action = read_hits(path)
    assert back == []
    assert action is None
