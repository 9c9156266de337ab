"""Consensus voting, Venn regions, and the assembled decision board."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate.board import (
    CONSENSUS,
    BoardConfig,
    Votes,
    consensus,
    read_votes,
    run_board,
    venn_counts,
    write_votes,
)
from noisegate.board.verdict import DETECTOR_IDS, Consensus, Verdict
from noisegate.dataset import SplitSpec, split_train_test

from . import oracles
from .conftest import make_table


def _outcome(pattern) -> Consensus:
    """The board's consensus on one rating voted pattern (one Verdict per detector)."""
    return CONSENSUS[consensus(np.array([[v is Verdict.NOISY for v in pattern]]))[0]]


def test_consensus_unanimous_noisy():
    assert _outcome([Verdict.NOISY] * 4) is Consensus.NOISY


def test_consensus_unanimous_clean():
    assert _outcome([Verdict.CLEAN] * 4) is Consensus.CLEAN


def test_consensus_split_vote_uncertain():
    pattern = [Verdict.NOISY, Verdict.CLEAN, Verdict.NOISY, Verdict.NOISY]
    assert _outcome(pattern) is Consensus.UNCERTAIN


def test_consensus_missing_vote_raises():
    with pytest.raises(ValueError):
        consensus(np.ones((1, len(DETECTOR_IDS) - 1), dtype=bool))


def test_consensus_exhaustive_16_patterns():
    for pattern in itertools.product([Verdict.NOISY, Verdict.CLEAN], repeat=4):
        got = _outcome(pattern)
        if all(v is Verdict.NOISY for v in pattern):
            assert got is Consensus.NOISY
        elif all(v is Verdict.CLEAN for v in pattern):
            assert got is Consensus.CLEAN
        else:
            assert got is Consensus.UNCERTAIN


def _noisy(patterns) -> np.ndarray:
    """The (n, 4) noisy-vote matrix of n voted patterns."""
    return np.array([[v is Verdict.NOISY for v in p] for p in patterns], dtype=bool).reshape(-1, 4)


def test_venn_nothing_flagged():
    counts = venn_counts(_noisy([[Verdict.CLEAN] * 4] * 5))
    assert counts["none"] == 5
    assert sum(v for k, v in counts.items() if k != "none") == 0


def test_venn_single_pair_region():
    pattern = [Verdict.CLEAN, Verdict.NOISY, Verdict.NOISY, Verdict.CLEAN]
    counts = venn_counts(_noisy([pattern]))
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
    counts = venn_counts(np.array(patterns, dtype=bool).reshape(-1, 4))
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
    return (*split_train_test(make_table(rows), SplitSpec(0.8, 7)), genres)


def test_run_board_partitions_test_split():
    train, test, genres = _board_tables()
    res = run_board(train, test, genres, BoardConfig())
    keys = set(res.votes.keys())
    assert keys == set(oracles.keys(test))
    n = len(test)
    by = {c: int(res.votes.where(c).sum()) for c in Consensus}
    assert sum(by.values()) == n


def test_run_board_consensus_subset_of_each_detector():
    train, test, genres = _board_tables()
    res = run_board(train, test, genres, BoardConfig())
    consensus_noisy = res.votes.where(Consensus.NOISY)
    for flags, noisy in zip(res.votes.noisy.tolist(), consensus_noisy.tolist()):
        if noisy:
            assert all(flags)


def test_run_board_venn_sums_to_test_size():
    train, test, genres = _board_tables()
    res = run_board(train, test, genres, BoardConfig())
    assert sum(res.venn.values()) == len(test)


def test_run_board_deterministic():
    train, test, genres = _board_tables()
    a = run_board(train, test, genres, BoardConfig())
    b = run_board(train, test, genres, BoardConfig())
    assert a.votes.keys() == b.votes.keys()
    assert a.votes.consensus.tolist() == b.votes.consensus.tolist()
    assert a.venn == b.venn


def test_detector_results_are_row_aligned():
    """Every field of a detector result is an array whose first axis is the
    test rows, or an int count: no result keeps a side map keyed by id."""
    train, test, genres = _board_tables()
    res = run_board(train, test, genres, BoardConfig())
    for result in (res.nf1, res.nf2, res.nf3, res.nf4):
        for name, value in result._asdict().items():
            where = f"{type(result).__name__}.{name}"
            if isinstance(value, int):
                continue
            assert isinstance(value, np.ndarray), where
            assert value.shape[:1] == (len(test),), where


def test_votes_csv_roundtrip(tmp_path):
    train, test, genres = _board_tables()
    res = run_board(train, test, genres, BoardConfig())
    p = tmp_path / "votes.csv"
    write_votes(res.votes, p)
    back = read_votes(p)
    for name in ("users", "items", "noisy", "consensus"):
        got, want = getattr(back, name), getattr(res.votes, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _votes(keys, patterns, codes) -> Votes:
    users, items = np.array(keys, dtype=np.int64).reshape(-1, 2).T
    return Votes(users, items, _noisy(patterns), np.array(codes, dtype=np.int8))


def test_write_votes_failure_leaves_old_file(tmp_path):
    p = tmp_path / "votes.csv"
    write_votes(_votes([(9, 9)], [[Verdict.NOISY] * 4], [0]), p)
    before = p.read_bytes()
    # the second row's consensus code names no outcome: the writer fails there
    bad = _votes([(1, 2), (1, 3)], [[Verdict.CLEAN] * 4, [Verdict.NOISY] * 4], [1, 7])
    with pytest.raises(IndexError):
        write_votes(bad, p)
    assert p.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,2,noisy,bogus,clean,clean,uncertain", "Verdict"),
        ("1,2,noisy,noisy,noisy,clean,noisy", "unanimity"),
        ("1,x,clean,clean,clean,clean,clean", "could not convert string 'x' to int64"),
        ("1,2,clean,clean,clean,clean", "requires 7 columns but 6 were found"),
    ],
    # ids name the malformed row, not numpy's wording of the error
    ids=[
        "1,2,noisy,bogus,clean,clean,uncertain-Verdict",
        "1,2,noisy,noisy,noisy,clean,noisy-unanimity",
        "1,x,clean,clean,clean,clean,clean-invalid literal",
        "1,2,clean,clean,clean,clean-fields",
    ],
)
def test_read_votes_rejects_malformed_rows(tmp_path, row, message):
    p = tmp_path / "votes.csv"
    p.write_text("userId,itemId,nf1,nf2,nf3,nf4,consensus\n1,1,clean,clean,clean,clean,clean\n"
                 + row + "\n")
    with pytest.raises(ValueError, match=message):
        read_votes(p)
