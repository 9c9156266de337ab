"""Similarity, kNN prediction, matrix factorization, and top-K ranking."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate import recsys, synth
from noisegate.cli import EXIT_CONFIG, main
from noisegate.dataset import Scale, SplitSpec, split_train_test
from noisegate.pipeline import split_three
from noisegate.recsys import (
    KnnConfig,
    MfModel,
    SimilarityMatrix,
    knn_predict,
    load_model,
    mf_train,
    recommend_topk,
    save_model,
)

from . import oracles
from .conftest import MINI_DIR, make_table
from .oracles import _profile, pearson_similarity


def _brute_pearson(a: dict[int, float], b: dict[int, float], cfg: KnnConfig) -> float:
    """Independent oracle: textbook Pearson times the significance weight."""
    common = sorted(set(a) & set(b))
    if len(common) < cfg.min_overlap:
        return 0.0
    xs = [a[i] for i in common]
    ys = [b[i] for i in common]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    dx = sum((x - mx) ** 2 for x in xs) ** 0.5
    dy = sum((y - my) ** 2 for y in ys) ** 0.5
    if dx == 0 or dy == 0:
        return 0.0
    return (num / (dx * dy)) * min(len(common), cfg.significance_cap) / cfg.significance_cap


def _pair_similarity(a: dict[int, float], b: dict[int, float], cfg: KnnConfig) -> float:
    """SimilarityMatrix's weight between a user with profile a and one with profile b."""
    t = make_table([(1, i, v, 0) for i, v in a.items()] + [(2, i, v, 0) for i, v in b.items()])
    return SimilarityMatrix(t, cfg).between(1, 2)


def test_pearson_identical_long_profiles_is_one():
    prof = {i: float(1 + (i % 9) * 0.5) for i in range(60)}
    cfg = KnnConfig(significance_cap=50)
    assert _pair_similarity(prof, dict(prof), cfg) == pytest.approx(1.0, abs=1e-9)


def test_pearson_overlap_below_min_is_zero():
    cfg = KnnConfig(min_overlap=2)
    assert _pair_similarity({1: 4.0}, {1: 2.0}, cfg) == 0.0


def test_pearson_reversed_triple_weighted():
    a = {1: 1.0, 2: 2.0, 3: 3.0}
    b = {1: 3.0, 2: 2.0, 3: 1.0}
    cfg = KnnConfig(significance_cap=50)
    assert _pair_similarity(a, b, cfg) == pytest.approx(-0.06, abs=1e-9)


def test_pearson_zero_variance_is_zero():
    a = {1: 3.0, 2: 3.0, 3: 3.0}
    b = {1: 1.0, 2: 2.0, 3: 5.0}
    assert _pair_similarity(a, b, KnnConfig()) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.tuples(st.floats(0.5, 5.0), st.floats(0.5, 5.0)), min_size=2, max_size=20
    ),
    cap=st.integers(1, 50),
)
def test_pearson_matches_brute_force_and_is_symmetric(values, cap):
    a = {i: round(v[0] * 2) / 2 for i, v in enumerate(values)}
    b = {i: round(v[1] * 2) / 2 for i, v in enumerate(values)}
    cfg = KnnConfig(min_overlap=2, significance_cap=cap)
    got = _pair_similarity(a, b, cfg)
    assert got == pytest.approx(_brute_pearson(a, b, cfg), abs=1e-9)
    assert got == pytest.approx(_pair_similarity(b, a, cfg), abs=1e-9)


def test_similarity_matrix_agrees_with_pairwise():
    rows = []
    rng = np.random.default_rng(7)
    for u in range(1, 7):
        for i in range(1, 15):
            if rng.random() < 0.7:
                rows.append((u, i, float(rng.integers(1, 11)) / 2, 0))
    t = make_table(rows)
    cfg = KnnConfig(min_overlap=2, significance_cap=50)
    sims = SimilarityMatrix(t, cfg)
    for u in t.user_ids():
        for v in t.user_ids():
            direct = pearson_similarity(_profile(t, u), _profile(t, v), cfg)
            assert sims.between(u, v) == pytest.approx(direct, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 60))
def test_similarity_matrix_equals_whole_array_build(data, min_overlap, cap):
    # Users rate a random subset of few items, so some share fewer than
    # min_overlap of them; a constant user has zero variance.  Off-grid
    # values round differently in every product.
    n_users = data.draw(st.integers(1, 9))
    n_items = data.draw(st.integers(1, 12))
    grid = data.draw(st.booleans())
    values = st.sampled_from([0.5, 1.0, 2.5, 3.0, 4.5, 5.0]) if grid else st.floats(0.5, 5.0)
    rows = []
    for u in range(1, n_users + 1):
        items = data.draw(st.lists(st.integers(1, n_items), min_size=1, max_size=n_items,
                                   unique=True))
        constant = data.draw(values) if data.draw(st.integers(0, 3)) == 0 else None
        rows += [(u * 7, i * 3, constant if constant is not None else data.draw(values), 0)
                 for i in items]
    t = make_table(rows)
    cfg = KnnConfig(min_overlap=min_overlap, significance_cap=cap)
    got = SimilarityMatrix(t, cfg).matrix
    want = oracles.similarity_matrix_products(t, cfg)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 60), st.sampled_from([1, 4, 9, 20, 45, 100]))
def test_tiled_similarity_matrix_matches_oracles(data, min_overlap, cap, cells):
    # A tile bound of a few cells cuts up to 40 users into blocks of
    # max(1, min(cells // items, isqrt(cells))) users: one-user blocks when
    # cells < items, and a ragged last block when the block rows do not
    # divide the users.  On the half-point grid every tile sum is exact, so
    # the whole-array build holds byte for byte; tenths round differently
    # across tiles, but stay exactly symmetric and within 1e-9 of the pair
    # formula (tenths are far apart, so no variance is ill-conditioned).
    n_users = data.draw(st.integers(1, 40))
    n_items = data.draw(st.integers(1, 15))
    grid = data.draw(st.booleans())
    values = st.integers(1, 10).map(lambda k: k / 2) if grid else st.integers(5, 50).map(
        lambda k: k / 10
    )
    rows = []
    for u in range(1, n_users + 1):
        items = data.draw(st.lists(st.integers(1, n_items), min_size=1, max_size=n_items,
                                   unique=True))
        constant = data.draw(values) if data.draw(st.integers(0, 3)) == 0 else None
        rows += [(u * 7, i * 3, constant if constant is not None else data.draw(values), 0)
                 for i in items]
    t = make_table(rows)
    cfg = KnnConfig(min_overlap=min_overlap, significance_cap=cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recsys, "_TILE_CELLS", cells)
        got = SimilarityMatrix(t, cfg).matrix
    if grid:
        assert got.tobytes() == oracles.similarity_matrix_products(t, cfg).tobytes()
    else:
        assert got.tobytes() == got.T.copy().tobytes()
        profiles = [_profile(t, u) for u in t.user_ids()]
        want = [[pearson_similarity(a, b, cfg) for b in profiles] for a in profiles]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_similarity_build_memory_stays_within_its_tiles():
    # detect-dense's train split, 700 users x 560 items: the 3.9 MB result
    # plus six blocks of at most 2^16 cells, their tiles and the row indices
    # (9.9 MB traced as a process's first build), where the whole-array
    # build peaked at 22 MB.
    table = synth.planted_tables(users=700, items=560, ratings_per_user=(80, 120), seed=0)[0]
    train = split_three(table, (0.7, 0.15, 0.15), seed=0)[0]
    assert (len(train.user_ids()), len(train.item_ids())) == (700, 560)
    tracemalloc.start()
    try:
        SimilarityMatrix(train)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def _neighbor_fixture():
    # user 1: mean 3.0; neighbor 2 rates like user 1 on shared items and has
    # deviation +0.5 on the target item 99 (its own mean is 3.0 as well).
    rows = [
        (1, 1, 2.0, 0),
        (1, 2, 3.0, 0),
        (1, 3, 4.0, 0),
        (2, 1, 2.0, 0),
        (2, 2, 3.0, 0),
        (2, 3, 4.0, 0),
        (2, 4, 2.5, 0),
        (2, 99, 3.5, 0),
    ]
    return make_table(rows)


def test_knn_single_perfect_neighbor_deviation():
    t = _neighbor_fixture()
    cfg = KnnConfig(k=5, min_overlap=2, significance_cap=3)
    # neighbor similarity: identical over 3 co-rated items with variance -> 1.0
    assert SimilarityMatrix(t, cfg).between(1, 2) == pytest.approx(1.0)
    # neighbor mean = (2+3+4+2.5+3.5)/5 = 3.0, deviation on item 99 = +0.5
    pred = knn_predict(t, 1, 99, cfg)
    assert pred == pytest.approx(3.5, abs=1e-9)


def test_knn_no_neighbor_rated_item_unpredictable():
    t = _neighbor_fixture()
    assert knn_predict(t, 1, 777, KnnConfig(min_overlap=2)) is None


def test_knn_all_similarities_zero_unpredictable():
    rows = [(1, 1, 3.0, 0), (1, 2, 3.0, 0), (2, 1, 1.0, 0), (2, 2, 5.0, 0), (2, 3, 4.0, 0)]
    t = make_table(rows)  # user 1 has zero variance -> similarity 0
    assert knn_predict(t, 1, 3, KnnConfig(min_overlap=2)) is None


def test_knn_unknown_user_raises():
    t = _neighbor_fixture()
    with pytest.raises(ValueError):
        knn_predict(t, 404, 1, KnnConfig())


def test_knn_prediction_clamped_to_scale():
    rows = [
        (1, 1, 5.0, 0), (1, 2, 4.5, 0), (1, 3, 5.0, 0),
        (2, 1, 5.0, 0), (2, 2, 4.5, 0), (2, 3, 5.0, 0), (2, 4, 5.0, 0),
    ]
    t = make_table(rows)
    pred = knn_predict(t, 1, 4, KnnConfig(min_overlap=2, significance_cap=3))
    assert pred is not None and 0.5 <= pred <= 5.0


def test_mf_constant_dataset_converges_to_mean():
    rows = [(u, i, 3.0, 0) for u in range(1, 6) for i in range(1, 9)]
    t = make_table(rows)
    model = mf_train(t, f=4, epochs=20, reg=0.02, seed=0)
    assert model.global_mean == pytest.approx(3.0)
    preds = [oracles.mf_predict(model, u, i) for u in range(1, 6) for i in range(1, 9)]
    rmse = float(np.sqrt(np.mean((np.array(preds) - 3.0) ** 2)))
    assert rmse < 1e-2


def test_mf_seed_determinism_bitwise():
    rows = [(u, i, float((u * i) % 9) / 2 + 0.5, 0) for u in range(1, 7) for i in range(1, 12)]
    t = make_table(rows)
    a = mf_train(t, f=5, epochs=10, seed=13)
    b = mf_train(t, f=5, epochs=10, seed=13)
    assert np.array_equal(a.P, b.P)


def test_mf_rank_one_pattern_fits():
    # 2x2 rank-1 pattern: r_ui = a_u * b_i scaled into the rating range
    rows = [(1, 1, 1.0, 0), (1, 2, 2.0, 0), (2, 1, 2.0, 0), (2, 2, 4.0, 0)]
    t = make_table(rows)
    model = mf_train(t, f=2, epochs=200, reg=0.0, seed=3)
    preds = np.array([oracles.mf_predict(model, r.user_id, r.item_id) for r in oracles.ratings(t)])
    rmse = float(np.sqrt(np.mean((preds - t.values) ** 2)))
    assert rmse < 0.1


def test_mf_items_are_exact_ridge_minimizers():
    # The item half-sweep ends every ALS sweep, so each item's [q_i, b_i]
    # zeroes the gradient of  sum (r - mu - b_u - b_i - p_u.q_i)^2
    # + reg * n_i * (|q_i|^2 + b_i^2)  given the final users.
    rng = np.random.default_rng(4)
    rows = [
        (u, i, float(rng.integers(1, 11)) / 2, 0)
        for u in range(1, 10)
        for i in range(1, 14)
        if rng.random() < 0.6
    ]
    t = make_table(rows)
    reg = 0.05
    model = mf_train(t, f=3, epochs=6, reg=reg, seed=2)
    grads = {i: np.zeros(model.f + 1) for i in model.items.tolist()}
    counts = dict.fromkeys(model.items.tolist(), 0)
    for r in oracles.ratings(t):
        ur, ir = np.searchsorted(model.users, r.user_id), np.searchsorted(model.items, r.item_id)
        p, q = model.P[ur], model.Q[ir]
        e = r.value - (model.global_mean + model.bu[ur] + model.bi[ir] + float(p @ q))
        grads[r.item_id] -= 2.0 * e * np.append(p, 1.0)
        counts[r.item_id] += 1
    for k, i in enumerate(model.items.tolist()):
        grads[i] += 2.0 * reg * counts[i] * np.append(model.Q[k], model.bi[k])
    assert max(float(np.abs(g).max()) for g in grads.values()) < 1e-8


def _bias_only(train, lam: float = 1.0, sweeps: int = 20):
    """Damped-mean baseline mu + b_u + b_i fitted by alternating means."""
    mu = float(train.values.mean())
    bu: dict[int, float] = {}
    bi: dict[int, float] = {}
    for _ in range(sweeps):
        acc: dict[int, list[float]] = {}
        for r in oracles.ratings(train):
            acc.setdefault(r.item_id, []).append(r.value - mu - bu.get(r.user_id, 0.0))
        bi = {i: sum(v) / (len(v) + lam) for i, v in acc.items()}
        acc = {}
        for r in oracles.ratings(train):
            acc.setdefault(r.user_id, []).append(r.value - mu - bi[r.item_id])
        bu = {u: sum(v) / (len(v) + lam) for u, v in acc.items()}
    return lambda u, i: oracles.clamp(train.scale, mu + bu.get(u, 0.0) + bi.get(i, 0.0))


def test_mf_beats_bias_only_on_held_out(planted_small):
    table, _genres = planted_small
    train, held = split_train_test(table, SplitSpec(train_fraction=0.8, seed=1))
    model = mf_train(train, f=6, epochs=20, reg=0.05, seed=0)
    baseline = _bias_only(train)

    def rmse(predict) -> float:
        errs = [predict(r.user_id, r.item_id) - r.value for r in oracles.ratings(held)]
        return float(np.sqrt(np.mean(np.square(errs))))

    assert rmse(lambda u, i: oracles.mf_predict(model, u, i)) < rmse(baseline)


def test_config_with_mf_lr_exits_2(tmp_path, capsys):
    # ALS has no learning rate, so a config that still sets one is stale.
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps(
            {
                "ratings_path": str(MINI_DIR / "ratings.csv"),
                "movies_path": str(MINI_DIR / "movies.csv"),
                "out_dir": str(tmp_path / "out"),
                "mf_lr": 0.01,
            }
        )
    )
    assert main(["ingest", "--config", str(cfg_file)]) == EXIT_CONFIG
    assert "mf_lr" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _fixed_score_model(item_scores: dict[int, float], mu: float = 3.0) -> MfModel:
    """Model whose prediction for user 1 on item i is exactly item_scores[i]."""
    items = sorted(item_scores)
    bi = np.array([item_scores[i] - mu for i in items])
    return MfModel(
        users=[1],
        items=items,
        P=np.zeros((1, 1)),
        Q=np.zeros((len(items), 1)),
        bu=np.zeros(1),
        bi=bi,
        global_mean=mu,
        scale=Scale(),
    )


def test_topk_zero_is_empty():
    t = make_table([(1, 1, 3.0, 0)])
    model = _fixed_score_model({2: 4.0, 3: 3.0})
    assert recommend_topk(model, t, np.array([1]), 0).shape == (1, 0)


def test_topk_orders_by_score_then_item_id():
    t = make_table([(1, 1, 3.0, 0)])
    scores = {2: 4.1, 3: 3.9, 4: 2.0}
    model = _fixed_score_model(scores)
    # brute-force oracle: sort candidates by (-score, item)
    oracle = sorted(scores, key=lambda i: (-scores[i], i))[:2]
    got = recommend_topk(model, t, np.array([1]), 2)
    assert got.tolist() == [oracle] == [[2, 3]]
    assert oracles.mf_predict(model, 1, 2) == pytest.approx(4.1)


def test_topk_equal_scores_tie_break_by_item_id():
    t = make_table([(1, 1, 3.0, 0)])
    model = _fixed_score_model({5: 3.3, 4: 3.3, 6: 3.3})
    got = recommend_topk(model, t, np.array([1]), 2)
    assert got.tolist() == [[4, 5]]


def test_topk_keeps_the_lowest_ids_among_items_tied_past_k():
    # Six unrated items clip to r_max and one scores below; K = 3 keeps the
    # three lowest ids of the six, whatever order a partition leaves them in.
    t = make_table([(1, 1, 3.0, 0)])
    model = _fixed_score_model({9: 7.0, 4: 5.5, 8: 5.0, 2: 9.0, 6: 4.9, 3: 6.0, 7: 5.0})
    got = recommend_topk(model, t, np.array([1]), 3)
    assert got.tolist() == [[2, 3, 4]]
    assert recommend_topk(model, t, np.array([1]), 7).tolist() == [[2, 3, 4, 7, 8, 9, 6]]


def test_topk_excludes_already_rated():
    rows = [(1, 1, 3.0, 0), (1, 2, 4.0, 0), (2, 3, 2.0, 0)]
    t = make_table(rows)
    model = mf_train(t, f=2, epochs=5, seed=0)
    got = recommend_topk(model, t, np.array([1]), 10)
    # one unrated item is left, so the row is padded past it
    assert got.tolist() == [[3] + [-1] * 9]


def test_model_save_load_roundtrip(tmp_path):
    rows = [(u, i, float((u + i) % 9) / 2 + 0.5, 0) for u in range(1, 5) for i in range(1, 9)]
    t = make_table(rows)
    model = mf_train(t, f=3, epochs=8, seed=5)
    p = tmp_path / "model.json"
    save_model(model, p)
    back = load_model(p)
    for u in t.user_ids():
        for i in t.item_ids():
            assert oracles.mf_predict(back, u, i) == pytest.approx(
                oracles.mf_predict(model, u, i), abs=1e-12
            )
