"""Feature vectors assembled from Layer-1 outputs."""

from __future__ import annotations

import numpy as np
import pytest

from noisegate.board import BoardConfig, BoardResult, run_board
from noisegate.dataset import RatingsTable, SplitSpec, split_train_test
from noisegate.ensemble.features import (
    FEATURE_NAMES,
    build_feature_matrix,
    read_features,
    write_features,
)

from .conftest import make_genres, make_table
from .oracles import Rating


def build_features(rating: Rating, context: RatingsTable, board: BoardResult) -> np.ndarray:
    """Feature vector of one voted rating."""
    return build_feature_matrix(make_table([rating], context.scale), context, board)[0]


def _board_fixture():
    rng = np.random.default_rng(321)
    rows = []
    for u in range(1, 11):
        for i in range(1, 21):
            if rng.random() < 0.8:
                v = float(rng.integers(1, 11)) / 2
                rows.append((u, i, v, int(rng.integers(0, 5000))))
    genres = make_genres(
        {i: ("Action",) if i % 3 else ("Comedy", "Drama") for i in range(1, 21)},
        ("Action", "Comedy", "Drama"),
    )
    table = make_table(rows)
    train, test = split_train_test(table, SplitSpec(0.8, 11))
    context = train.merged(test)
    board = run_board(train, test, genres, BoardConfig())
    return test, context, board


def test_feature_vector_has_fixed_width():
    test, context, board = _board_fixture()
    X = build_feature_matrix(test, context, board)
    assert X.shape == (len(test), len(FEATURE_NAMES))
    assert np.all(np.isfinite(X))


def test_identical_inputs_identical_vectors():
    test, context, board = _board_fixture()
    a = build_feature_matrix(test, context, board)
    b = build_feature_matrix(test, context, board)
    assert np.array_equal(a, b)


def test_vote_features_encode_verdicts():
    test, context, board = _board_fixture()
    X = build_feature_matrix(test, context, board)
    col = {name: k for k, name in enumerate(FEATURE_NAMES)}
    assert len(X) == len(board.votes)
    for k in range(len(X)):
        for d, (result, feat) in enumerate(((board.nf1, "vote_nf1"), (board.nf2, "vote_nf2"),
                                            (board.nf3, "vote_nf3"), (board.nf4, "vote_nf4"))):
            want = 1.0 if result.noisy[k] else 0.0
            assert board.votes.noisy[k, d] == result.noisy[k]
            assert X[k, col[feat]] == want


def test_all_clean_votes_encode_zeros():
    # unanimous raters: every detector must vote Clean on every test rating
    genres = make_genres({i: ("Action",) for i in range(1, 6)}, ("Action",))
    rows = [(u, i, 5.0, u * 10 + i) for u in range(1, 6) for i in range(1, 6)]
    test = make_table([r for r in rows if r[0] == 1])
    train = make_table([r for r in rows if r[0] != 1])
    board = run_board(train, test, genres, BoardConfig())
    assert not board.votes.noisy.any()
    X = build_feature_matrix(test, train.merged(test), board)
    col = {name: k for k, name in enumerate(FEATURE_NAMES)}
    vote_cols = [col[f"vote_nf{d}"] for d in (1, 2, 3, 4)]
    for k in range(len(X)):
        assert tuple(X[k, c] for c in vote_cols) == (0.0, 0.0, 0.0, 0.0)


def test_deviation_features_zero_when_rating_equals_means():
    # single user, single item context: user mean = item mean = r
    genres = make_genres({1: ("Action",)}, ("Action",))
    test = make_table([(1, 1, 3.0, 0)])
    board = run_board(make_table([]), test, genres, BoardConfig())
    X = build_feature_matrix(test, test, board)
    col = {name: k for k, name in enumerate(FEATURE_NAMES)}
    assert X[0, col["abs_dev_user_mean"]] == 0.0
    assert X[0, col["abs_dev_item_mean"]] == 0.0


def test_unvoted_rating_raises():
    test, context, board = _board_fixture()
    orphan = Rating(9999, 9999, 3.0, 0)
    with pytest.raises(ValueError):
        build_features(orphan, context, board)


def test_nf3_missing_flag_distinguishes_unpredictable():
    test, context, board = _board_fixture()
    X = build_feature_matrix(test, context, board)
    col = {name: k for k, name in enumerate(FEATURE_NAMES)}
    for k in range(len(X)):
        missing = X[k, col["nf3_missing"]]
        cons = board.nf3.consistency[k]
        if np.isnan(cons):
            assert missing == 1.0
            assert X[k, col["nf3_consistency"]] == 0.0
        else:
            assert missing == 0.0
            assert X[k, col["nf3_consistency"]] == pytest.approx(cons, abs=1e-12)


def test_features_csv_roundtrip(tmp_path):
    test, context, board = _board_fixture()
    X = build_feature_matrix(test, context, board)
    p = tmp_path / "features.csv"
    write_features(p, test.users, test.items, X)
    users, items, X2 = read_features(p)
    assert np.array_equal(users, test.users) and np.array_equal(items, test.items)
    assert np.array_equal(X, X2)
