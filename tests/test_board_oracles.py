"""The array detectors, board and features against their per-rating loop oracles.

Every property demands exact equality: the array code performs the same
floating-point operations in the same order as the loops in tests/oracles.py.
Ratings sit on the 0.5 grid, where genre sums are exact in any order.  The
only NaNs are the oracle's explicit ones for unpredictable NF3 ratings, and
they must sit in the same places.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisegate.board import BoardConfig, run_board, venn_counts
from noisegate.board.nf1 import nf1_detect
from noisegate.board.nf2 import group_users, nf2_detect, user_coherence
from noisegate.board.nf3 import nf3_detect
from noisegate.board.nf4 import nf4_detect
from noisegate.dataset import GenreMap, RatingsTable, Scale
from noisegate.ensemble.features import build_feature_matrix
from noisegate.recsys import KnnConfig, SimilarityMatrix, knn_predict

from . import oracles


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal shape, dtype kind and values, NaN matching NaN."""
    return (
        got.shape == want.shape and got.dtype.kind == want.dtype.kind
        and np.array_equal(got, want, equal_nan=got.dtype.kind == "f")
    )


def _same_votes(got, want) -> bool:
    return all(
        _same(getattr(got, name), getattr(want, name))
        for name in ("users", "items", "noisy", "consensus")
    )

GRID = [0.5 * k for k in range(1, 11)]
VOCAB = ("Action", "Comedy", "Drama", "Solo")
TEST_ONLY_USER = 50  # rates only in test: absent from train
TEST_ONLY_ITEM = 60  # rated only in test (no raters); its genre "Solo" is on no other item
UNMAPPED_ITEM = 61  # missing from the genre map
COMEDY_ITEMS = (62, 63)  # Comedy only


@st.composite
def board_cases(draw):
    """(train, test, context) over a few users and items with held-out rows.

    Besides the drawn ratings, every case holds a test-only user, an item
    with no train raters whose only genre is known through the held-out
    rating, a genre-less item rated in train, and a test rating whose
    neighbors tie on |similarity| with both signs, a test rating with ten
    weighted neighbors, and a test rating that deviates from its genre mean
    by exactly 0.2.  The context is the train + test union the board uses,
    the test table alone, or train alone (which lacks the test-only user and
    every held-out rating).
    """
    n_users = draw(st.integers(2, 8))
    n_items = draw(st.integers(2, 6))
    grid = st.sampled_from(GRID)
    # Dense cells, a quarter of them held out: items get several raters.
    n = n_users * n_items
    values = draw(st.lists(st.none() | grid, min_size=n, max_size=n))
    held = draw(st.lists(st.sampled_from([0, 0, 0, 1]), min_size=n, max_size=n))
    cells = [
        (1 + k // n_items, 1 + k % n_items, v, h)
        for k, (v, h) in enumerate(zip(values, held))
        if v is not None
    ]
    train_rows = [(u, i, v, 0) for u, i, v, held in cells if not held]
    train_rows.append((1, UNMAPPED_ITEM, draw(grid), 0))
    test_rows = [(u, i, v, 0) for u, i, v, held in cells if held]
    test_rows += [(TEST_ONLY_USER, 1, draw(grid), 0), (1, TEST_ONLY_ITEM, draw(grid), 0)]
    # Users 41-43 copy user 1 on items 70 and 71 (similarity exactly +1 before
    # the significance weight) and user 44 mirrors it (exactly -1): a four-way
    # |w| tie among the raters of item 72, which user 1 rates in test.
    a, b = draw(st.lists(grid, min_size=2, max_size=2, unique=True))
    train_rows += [(1, 70, a, 0), (1, 71, b, 0), (44, 70, b, 0), (44, 71, a, 0)]
    train_rows += [(v, i, x, 0) for v in (41, 42, 43) for i, x in ((70, a), (71, b))]
    train_rows += [(v, 72, draw(grid), 0) for v in (41, 42, 43, 44)]
    test_rows.append((1, 72, draw(grid), 0))
    # Users 81-90 rate item 73, which user 1 rates in test, and share items
    # 70, 71 and 74-76 with user 1: ten raters with distinct nonzero weights,
    # enough for a pairwise sum to round differently from a sequential one.
    train_rows += [(1, i, draw(grid), 0) for i in (74, 75, 76)]
    train_rows += [(v, i, draw(grid), 0) for v in range(81, 91) for i in (70, 71, 73, 74, 75, 76)]
    test_rows.append((1, 73, draw(grid), 0))
    # User 46 rates one Comedy item 2.5 in train and another 3.0 in test: a
    # relative deviation of exactly 0.2 from the leave-one-out Comedy mean.
    train_rows.append((46, COMEDY_ITEMS[0], 2.5, 0))
    test_rows.append((46, COMEDY_ITEMS[1], 3.0, 0))
    vectors = {item: np.array([0.0, 1.0, 0.0, 0.0]) for item in COMEDY_ITEMS}
    mapped = [*range(1, n_items + 1), *range(70, 77)]
    bits = draw(st.lists(st.integers(0, 7), min_size=len(mapped), max_size=len(mapped)))
    for item, b in zip(mapped, bits):  # three genre bits; 0 is an empty vector
        vectors[item] = np.array([b & 1, b >> 1 & 1, b >> 2 & 1, 0], dtype=np.float64)
    vectors[TEST_ONLY_ITEM] = np.array([0.0, 0.0, 0.0, 1.0])
    genres = GenreMap(vectors, VOCAB)
    train = RatingsTable(train_rows, Scale(), genres=genres)
    test = RatingsTable(test_rows, Scale(), genres=genres)
    context = {
        "merged": train.merged(test), "test": test, "train": train,
    }[draw(st.sampled_from(("merged", "test", "train")))]
    return train, test, context


# Small k and significance caps make |w| ties and k truncation common: with
# cap 1, any two users with two co-rated items of nonzero variance get
# similarity +1 or -1.
knn_configs = st.builds(
    KnnConfig,
    k=st.sampled_from([1, 2, 3, 35]),
    min_overlap=st.sampled_from([1, 2]),
    significance_cap=st.sampled_from([1, 2, 50]),
)


@settings(max_examples=100, deadline=None)
@given(case=board_cases(), majority=st.sampled_from([0.34, 0.5, 0.7]))
def test_nf1_matches_loop_oracle(case, majority):
    _, test, context = case
    got = nf1_detect(test, (2.5, 4.0), majority, context=context)
    want = oracles.nf1_detect_loop(test, (2.5, 4.0), majority, context=context)
    assert _same(got.noisy, want.noisy)
    assert got.user_classes == want.user_classes
    assert got.item_classes == want.item_classes


@settings(max_examples=100, deadline=None)
@given(
    case=board_cases(),
    thetas=st.sampled_from([(0.075, 0.05), (0.3, 0.2), (0.2, 0.2), (0.01, 0.6)]),
    rnd_cut=st.sampled_from([0.0, 0.3, 0.5]),
    coherence_cut=st.sampled_from([0.8, 0.9, 0.95]),
)
def test_nf2_matches_loop_oracle(case, thetas, rnd_cut, coherence_cut):
    _, test, context = case
    got = nf2_detect(test, *thetas, rnd_cut, context=context, coherence_cut=coherence_cut)
    want = oracles.nf2_detect_loop(
        test, *thetas, rnd_cut, context=context, coherence_cut=coherence_cut
    )
    assert _same(got.noisy, want.noisy)
    assert _same(got.rnd, want.rnd)
    assert got.groups == want.groups
    assert group_users(context, coherence_cut) == oracles.group_users_loop(context, coherence_cut)
    for u in {int(u) for u in context.users}:
        assert user_coherence(u, context) == oracles.user_coherence_loop(u, context)


def _long_neighbor_case():
    """40 users on 8 items, each item held out by 5: every held-out item has
    35 raters with distinct weights, so a sum over up to 35 neighbors would
    round differently if it were pairwise rather than left to right."""
    rng = np.random.default_rng(5)
    cells = [(u, i, float(rng.choice(GRID)), 0) for u in range(1, 41) for i in range(1, 9)]
    held = {(u, 1 + u % 8) for u in range(1, 41)}
    train = RatingsTable([c for c in cells if c[:2] not in held], Scale())
    test = RatingsTable([c for c in cells if c[:2] in held], Scale())
    return train, test, train.merged(test)


@settings(max_examples=150, deadline=None)
@given(case=board_cases(), cfg=knn_configs, th=st.sampled_from([0.0, 0.05, 0.2]))
@example(case=_long_neighbor_case(), cfg=KnnConfig(k=35), th=0.05)
def test_nf3_matches_loop_oracle(case, cfg, th):
    train, test, _ = case
    got = nf3_detect(train, test, cfg, th)
    want = oracles.nf3_detect_loop(train, test, cfg, th)
    assert _same(got.predictions, want.predictions)
    assert _same(got.consistency, want.consistency)
    assert _same(got.noisy, want.noisy)
    assert got.n_unpredictable == want.n_unpredictable
    sims = SimilarityMatrix(train, cfg)
    for r in test:
        if r.user_id in train.user_ids():
            assert knn_predict(train, r.user_id, r.item_id, cfg, sims) == (
                oracles.knn_predict_loop(train, r.user_id, r.item_id, cfg, sims)
            )
            assert knn_predict(train, r.user_id, r.item_id, cfg) == (
                oracles.knn_predict_loop(train, r.user_id, r.item_id, cfg, None)
            )


@settings(max_examples=100, deadline=None)
@given(
    case=board_cases(),
    deltas=st.sampled_from([(1.0, 0.25), (0.5, 0.0), (2.1, -0.1), (1.5, 0.1)]),
)
def test_nf4_matches_loop_oracle(case, deltas):
    _, test, context = case
    got = nf4_detect(test, *deltas, context=context)
    want = oracles.nf4_detect_loop(test, *deltas, context=context)
    assert _same(got.noisy, want.noisy)
    assert _same(got.noise_degree, want.noise_degree)
    assert got.user_profiles == want.user_profiles
    assert got.item_profiles == want.item_profiles
    assert got.n_prefiltered == want.n_prefiltered


@settings(max_examples=60, deadline=None)
@given(case=board_cases(), cfg=knn_configs)
def test_board_and_features_match_loop_oracles(case, cfg):
    train, test, _ = case
    context = train.merged(test)
    board_cfg = BoardConfig(
        nf3_k=cfg.k, nf3_min_overlap=cfg.min_overlap, nf3_significance_cap=cfg.significance_cap
    )
    board = run_board(train, test, board_cfg)
    votes = oracles.votes_loop(test, (board.nf1, board.nf2, board.nf3, board.nf4))
    assert _same_votes(board.votes, votes)
    assert list(board.venn.items()) == list(oracles.venn_loop(votes).items())
    assert venn_counts(votes.noisy) == board.venn
    want3 = oracles.nf3_detect_loop(train, test, cfg, BoardConfig().nf3_th)
    assert all(_same(a, b) for a, b in zip(board.nf3[:3], want3[:3]))
    assert board.nf3.n_unpredictable == want3.n_unpredictable
    X = build_feature_matrix(test, context, board)
    want_keys, want_X = oracles.feature_matrix_loop(test, context, board)
    assert want_keys == board.votes.keys()
    assert np.array_equal(X, want_X)
