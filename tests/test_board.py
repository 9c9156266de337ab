"""Consensus voting, Venn regions, and the assembled decision board."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate.board import BoardConfig, consensus, run_board, venn_counts, write_votes, read_votes
from noisegate.board.verdict import DETECTOR_IDS, Consensus, Verdict, VoteSet
from noisegate.dataset import SplitSpec, split_train_test

from .conftest import make_table


def test_consensus_unanimous_noisy():
    votes = {d: Verdict.NOISY for d in DETECTOR_IDS}
    assert consensus(votes) is Consensus.NOISY


def test_consensus_unanimous_clean():
    votes = {d: Verdict.CLEAN for d in DETECTOR_IDS}
    assert consensus(votes) is Consensus.CLEAN


def test_consensus_split_vote_uncertain():
    votes = dict(zip(DETECTOR_IDS, [Verdict.NOISY, Verdict.CLEAN, Verdict.NOISY, Verdict.NOISY]))
    assert consensus(votes) is Consensus.UNCERTAIN


def test_consensus_missing_vote_raises():
    votes = {d: Verdict.NOISY for d in DETECTOR_IDS[:3]}
    with pytest.raises(ValueError):
        consensus(votes)


def test_consensus_exhaustive_16_patterns():
    for pattern in itertools.product([Verdict.NOISY, Verdict.CLEAN], repeat=4):
        votes = dict(zip(DETECTOR_IDS, pattern))
        got = consensus(votes)
        if all(v is Verdict.NOISY for v in pattern):
            assert got is Consensus.NOISY
        elif all(v is Verdict.CLEAN for v in pattern):
            assert got is Consensus.CLEAN
        else:
            assert got is Consensus.UNCERTAIN


def _voteset(key, pattern):
    votes = dict(zip(DETECTOR_IDS, pattern))
    return VoteSet(key, votes, consensus(votes))


def test_venn_nothing_flagged():
    sets = [_voteset((1, i), [Verdict.CLEAN] * 4) for i in range(5)]
    counts = venn_counts(sets)
    assert counts["none"] == 5
    assert sum(v for k, v in counts.items() if k != "none") == 0


def test_venn_single_pair_region():
    pattern = [Verdict.CLEAN, Verdict.NOISY, Verdict.NOISY, Verdict.CLEAN]
    counts = venn_counts([_voteset((1, 1), pattern)])
    assert counts["NF2&NF3"] == 1
    assert counts["none"] == 0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
        min_size=0,
        max_size=40,
    )
)
def test_venn_regions_partition_everything(patterns):
    sets = []
    for k, flags in enumerate(patterns):
        pattern = [Verdict.NOISY if f else Verdict.CLEAN for f in flags]
        sets.append(_voteset((1, k), pattern))
    counts = venn_counts(sets)
    assert sum(counts.values()) == len(patterns)
    # brute-force oracle: recount each exact subset independently
    for flags in itertools.product([False, True], repeat=4):
        if not any(flags):
            continue
        label = "&".join(d for d, f in zip(DETECTOR_IDS, flags) if f)
        want = sum(1 for p in patterns if tuple(p) == flags)
        assert counts.get(label, 0) == want


def _board_tables():
    rng = np.random.default_rng(99)
    rows = []
    for u in range(1, 13):
        base = float(rng.uniform(1.5, 4.5))
        for i in range(1, 26):
            if rng.random() < 0.75:
                v = min(5.0, max(0.5, round((base + float(rng.normal(0, 0.7))) * 2) / 2))
                rows.append((u, i, v, int(rng.integers(0, 10_000))))
    from .conftest import make_genres

    genres = make_genres(
        {i: ("Action",) if i % 2 else ("Action", "Comedy") for i in range(1, 26)},
        ("Action", "Comedy", "Drama"),
    )
    table = make_table(rows, genres=genres)
    return split_train_test(table, SplitSpec(0.8, 7))


def test_run_board_partitions_test_split():
    train, test = _board_tables()
    res = run_board(train, test, BoardConfig())
    keys = {vs.key for vs in res.votesets}
    assert keys == {(r.user_id, r.item_id) for r in test}
    labels = res.labels()
    n = len(test)
    by = {c: sum(1 for v in labels.values() if v is c) for c in Consensus}
    assert sum(by.values()) == n


def test_run_board_consensus_subset_of_each_detector():
    train, test = _board_tables()
    res = run_board(train, test, BoardConfig())
    consensus_noisy = {vs.key for vs in res.votesets if vs.consensus is Consensus.NOISY}
    for vs in res.votesets:
        if vs.key in consensus_noisy:
            assert all(v is Verdict.NOISY for v in vs.votes.values())


def test_run_board_venn_sums_to_test_size():
    train, test = _board_tables()
    res = run_board(train, test, BoardConfig())
    assert sum(res.venn.values()) == len(test)


def test_run_board_deterministic():
    train, test = _board_tables()
    a = run_board(train, test, BoardConfig())
    b = run_board(train, test, BoardConfig())
    assert [(vs.key, vs.consensus) for vs in a.votesets] == [
        (vs.key, vs.consensus) for vs in b.votesets
    ]
    assert a.venn == b.venn


def test_votes_csv_roundtrip(tmp_path):
    train, test = _board_tables()
    res = run_board(train, test, BoardConfig())
    p = tmp_path / "votes.csv"
    write_votes(res.votesets, p)
    back = read_votes(p)
    assert [(vs.key, vs.votes, vs.consensus) for vs in back] == [
        (vs.key, vs.votes, vs.consensus) for vs in res.votesets
    ]


def test_write_votes_failure_leaves_old_file(tmp_path):
    p = tmp_path / "votes.csv"
    old = VoteSet((9, 9), {d: Verdict.NOISY for d in DETECTOR_IDS}, Consensus.NOISY)
    write_votes([old], p)
    before = p.read_bytes()
    good = VoteSet((1, 2), {d: Verdict.CLEAN for d in DETECTOR_IDS}, Consensus.CLEAN)
    missing_detector = VoteSet((1, 3), {"NF1": Verdict.NOISY}, Consensus.UNCERTAIN)
    with pytest.raises(KeyError):
        write_votes([good, missing_detector], p)
    assert p.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []
