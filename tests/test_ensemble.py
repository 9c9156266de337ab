"""Layer-2 learners: forest, stacking, boosting, self-training, isolation."""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate.ensemble import (
    VARIANTS,
    EnsembleConfig,
    classify_uncertain,
    learners,
    read_classification,
    ressel,
    train_el,
    write_classification,
)
from noisegate.ensemble.boosting import _sigmoid, train_gbt
from noisegate.ensemble.forest import RandomForest
from noisegate.ensemble.isolation import ExtendedIsolationForest, c_factor
from noisegate.ensemble.learners import (
    GaussianNB,
    KnnClassifier,
    LogisticRegression,
    MarginClassifier,
)
from noisegate.ensemble.ressel import train_ressel
from noisegate.ensemble.stacking import train_stacking
from noisegate.ensemble.trees import DecisionTree, RegressionTree, _Plan

from . import oracles


def _separable(n=100, seed=0, gap=2.0):
    """Two Gaussian blobs separated along the first feature."""
    rng = np.random.default_rng(seed)
    half = n // 2
    X0 = rng.normal(-gap, 0.5, size=(half, 2))
    X1 = rng.normal(+gap, 0.5, size=(n - half, 2))
    X = np.vstack([X0, X1])
    y = np.concatenate([np.zeros(half, np.int64), np.ones(n - half, np.int64)])
    perm = rng.permutation(n)
    return X[perm], y[perm]


def _xor(n=200, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(np.int64)
    return X, y


# -- linear learners -----------------------------------------------------


def _objective_gradient(model, X, y) -> np.ndarray:
    """Gradient in (w, b) of the objective the fitted model claims to
    minimize, mean loss + reg/2 |w|^2 on standardized X, written out here."""
    Z = model.scaler.transform(X)
    z = Z @ model.w + model.b
    if isinstance(model, LogisticRegression):
        dz = 1.0 / (1.0 + np.exp(-z)) - y  # log loss
    else:
        t = np.where(y == 1, 1.0, -1.0)
        dz = -2.0 * t * np.maximum(0.0, 1.0 - t * z)  # max(0, 1 - t z)^2
    return np.append(Z.T @ dz / len(y) + model.reg * model.w, dz.mean())


def _linear_cases():
    X, y = _separable(60, seed=20)  # linearly separable
    rng = np.random.default_rng(21)
    Xn = rng.normal(0, 1, size=(50, 3))
    yn = (Xn[:, 0] + rng.normal(0, 1, 50) > 0).astype(np.int64)
    one_positive = np.zeros(40, np.int64)
    one_positive[7] = 1
    return {
        "separable": (X, y),
        "constant column": (np.column_stack([Xn, np.full(50, 3.0)]), yn),
        "one feature": (Xn[:, :1], yn),
        "one positive": (rng.normal(0, 1, size=(40, 4)), one_positive),
    }


@pytest.mark.parametrize("learner", [LogisticRegression, MarginClassifier])
@pytest.mark.parametrize("case", sorted(_linear_cases()))
def test_linear_learners_stop_at_a_stationary_point(learner, case):
    X, y = _linear_cases()[case]
    for reg in (1e-3, 1e-4):
        model = learner(reg=reg).fit(X, y)
        assert np.linalg.norm(_objective_gradient(model, X, y)) < 1e-8
        again = learner(reg=reg).fit(X, y)
        assert again.w.tobytes() == model.w.tobytes() and again.b == model.b


# -- kNN and tree oracles -------------------------------------------------


def _grid_rows(draw, n, d, levels=3):
    """n rows of d features on a small integer grid, so that rows repeat and
    distances and feature values tie."""
    values = draw(st.lists(st.integers(0, levels), min_size=n * d, max_size=n * d))
    return np.array(values, dtype=np.float64).reshape(n, d)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_knn_proba_equals_stable_argsort(data):
    n = data.draw(st.integers(1, 40))
    d = data.draw(st.integers(1, 3))
    X = _grid_rows(data.draw, n, d)
    dup = data.draw(st.lists(st.integers(0, n - 1), max_size=10))
    X = np.vstack([X, X[dup]])
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X))))
    k = data.draw(st.integers(1, len(X) + 3))
    Q = np.vstack([_grid_rows(data.draw, data.draw(st.integers(1, 20)), d), X[:3]])
    model = KnnClassifier(k=k).fit(X, y)
    assert np.array_equal(model.predict_proba(Q), oracles.knn_proba_argsort(model, Q))


def test_knn_proba_equals_stable_argsort_across_chunks():
    rng = np.random.default_rng(22)
    X = rng.integers(0, 3, size=(300, 2)).astype(np.float64)
    y = rng.integers(0, 2, size=300)
    Q = rng.integers(0, 4, size=(1100, 2)).astype(np.float64)
    for k in (1, 7, 64):
        model = KnnClassifier(k=k).fit(X, y)
        assert np.array_equal(model.predict_proba(Q), oracles.knn_proba_argsort(model, Q))


def _tie_case(k: int, nearer: list[int], tied: list[int]):
    """1-D training rows labelled `nearer` at 1.0 and `tied` at 4.0 (equal
    rows, so their distances tie exactly), with k negatives at 9.0.  The
    first tied row comes before the others, so column order mixes the
    groups.  From a query at 0.0 the k-th distance falls in the tied group."""
    X = [4.0] + [1.0] * len(nearer) + [9.0] * k + [4.0] * (len(tied) - 1)
    y = tied[:1] + nearer + [0] * k + tied[1:]
    return np.array(X)[:, None], np.array(y)


@pytest.mark.parametrize("k", [5, 10])
@pytest.mark.parametrize(
    "shape",
    ["negative first, one place left", "ties past place k-1", "ties fill exactly"],
)
def test_knn_ties_at_the_kth_distance(k, shape):
    if shape == "negative first, one place left":
        nearer, tied, want = [1] * (k - 1), [0, 1], k - 1
    elif shape == "ties past place k-1":
        nearer, tied = [0, 1] + [0] * (k - 5), [0, 1, 0, 1, 1, 1, 0]
        want = 2  # one nearer positive; the first three ties in column order hold one
    else:
        nearer, tied, want = [0] * (k - 2), [1, 1], 2
    X, y = _tie_case(k, nearer, tied)
    model = KnnClassifier(k=k).fit(X, y)
    Q = np.array([[0.0], [0.5], [4.0], [9.0], [20.0]])
    got = model.predict_proba(Q)
    assert got[0] == want / k
    assert np.array_equal(got, oracles.knn_proba_argsort(model, Q))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_knn_near_ties_at_a_block_boundary(data):
    # Training rows repeat exactly, and some repeats sit one ulp away in
    # one feature, so distances tie exactly and within about an ulp at the
    # k-th place.  Each query appears on both sides of a block boundary,
    # and must get the fixed-order, one-query-at-a-time answer there.
    d = data.draw(st.integers(1, 3))
    base = _grid_rows(data.draw, data.draw(st.integers(1, 6)), d)
    X = base[data.draw(st.lists(st.integers(0, len(base) - 1), min_size=200, max_size=400))]
    nudged = data.draw(st.lists(st.integers(0, len(X) - 1), max_size=30, unique=True))
    for row in nudged:
        f = data.draw(st.integers(0, d - 1))
        X[row, f] = np.nextafter(X[row, f], data.draw(st.sampled_from([-np.inf, np.inf])))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X))))
    k = data.draw(st.integers(1, 12))
    queries = np.vstack([_grid_rows(data.draw, data.draw(st.integers(1, 5)), d), X[nudged[:3]]])
    model = KnnClassifier(k=k).fit(X, y)
    step = max(1, learners._BLOCK_CELLS // len(X))
    Q = np.resize(queries, (step + len(queries), d))
    want = np.resize(oracles.knn_proba_argsort(model, queries), len(Q))
    assert model.predict_proba(Q).tobytes() == want.tobytes()


def test_knn_memory_stays_within_a_few_blocks():
    # 5,000 queries over 2,000 training rows of Layer 2's 19 features: the
    # distances are held one block of at most 2^16 cells at a time.
    rng = np.random.default_rng(8)
    model = KnnClassifier(k=10).fit(rng.normal(size=(2000, 19)), rng.integers(0, 2, 2000))
    Q = rng.normal(size=(5000, 19))
    tracemalloc.start()
    try:
        model.predict_proba(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@settings(max_examples=100, deadline=None)
@given(
    st.data(),
    st.sampled_from(["best", "random"]),
    st.sampled_from([None, 1, 2, 5]),
    st.sampled_from([None, 1, 3]),
    st.booleans(),
)
def test_decision_tree_equals_per_node_sort(data, splitter, subset, depth, bootstrap):
    n = data.draw(st.integers(2, 60))
    X = _grid_rows(data.draw, n, 4)
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if bootstrap:
        idx = np.random.default_rng(data.draw(st.integers(0, 99))).integers(0, n, size=n)
        X, y = X[idx], y[idx]
    kw = dict(max_depth=depth, feature_subset=subset, splitter=splitter, seed=5)
    got = DecisionTree(**kw).fit(X, y)
    want = oracles.ArgsortDecisionTree(**kw).fit(X, y)
    assert oracles.tree_structure(got.root) == oracles.tree_structure(want.root)


def test_presorted_tree_sorts_only_the_nodes_it_searches():
    """Below the root, a presorted tree builds a sorted plan only for a
    child that is mixed, has min_samples_split rows and is above the depth
    limit: pure, small and depth-limit children keep rows only."""
    X, y = _xor(200)
    sorted_rows = []
    init = _Plan.__init__

    def spy(self, rows, X=None, orders=None, features=None):
        if orders is not None:
            sorted_rows.append(rows)
        init(self, rows, X, orders, features)

    with mock.patch.object(_Plan, "__init__", spy):
        tree = DecisionTree(max_depth=4, min_samples_split=30).fit(X, y)
    searched = [len(rows) >= 30 and 0 < y[rows].sum() < len(rows) for rows in sorted_rows]
    assert len(sorted_rows) > 3 and all(searched)
    assert len(sorted_rows) <= 1 + 2 + 4 + 8
    assert tree.predict(X).tolist() != [0] * len(X)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([1, 2, 3, 5]))
def test_regression_tree_equals_per_node_sort(data, depth):
    # Column 2 mirrors column 0, so each split on one ties exactly with a
    # split on the other, and rounding of the gradient sums, which depends
    # on the order of tied rows, picks the feature.  (The classification
    # tree counts labels in integers, so its splits cannot see that order.)
    n = data.draw(st.integers(2, 60))
    X = _grid_rows(data.draw, n, 2)
    X = np.column_stack([X, -X[:, 0]])
    g = np.array(data.draw(st.lists(
        st.sampled_from([0.1, 0.2, 0.3, -0.7, 1.1, -2.9, 1e16, -1e16]), min_size=n, max_size=n
    )))
    h = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    want = oracles.tree_structure(oracles.ArgsortRegressionTree(depth).fit(X, g, h).root)
    assert oracles.tree_structure(RegressionTree(depth).fit(X, g, h).root) == want


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([1, 2, 3]))
def test_regression_tree_prices_single_valued_nodes_as_per_node_sort(data, depth):
    # g takes one value on each side of a cut on column 0, so the children
    # of that cut are single-valued, and the whole node when both values
    # are one; nodes run from 2 rows to many.
    n = data.draw(st.integers(2, 80))
    X = _grid_rows(data.draw, n, 2)
    X = np.column_stack([X, -X[:, 0]])
    values = st.sampled_from([0.0, -0.0, 0.1, -2.9, 1e16, -3e150, 5e-324])
    g = np.where(X[:, 0] <= data.draw(st.integers(0, 3)), data.draw(values), data.draw(values))
    h = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    want = oracles.tree_structure(oracles.ArgsortRegressionTree(depth).fit(X, g, h).root)
    assert oracles.tree_structure(RegressionTree(depth).fit(X, g, h).root) == want


def test_regression_tree_takes_one_sequence_only_for_one_bit_pattern():
    # 0.0 and -0.0 are equal but not one bit pattern: a node mixing them
    # takes the per-order prefix sums, whose 2-d cumsums show in the spy.
    X = np.array([[0, 1], [2, 0], [1, 1], [3, 2], [0, 2], [2, 2]], float)
    h = np.full(len(X), 0.25)
    cumsum = np.cumsum
    for g, single in (
        (np.full(len(X), -0.0), True),
        (np.full(len(X), 0.0), True),
        (np.full(len(X), 7.5), True),
        (np.array([0.0, -0.0, 0.0, 0.0, -0.0, 0.0]), False),
    ):
        dims = []

        def spy(a, *args, **kwargs):
            dims.append(np.ndim(a))
            return cumsum(a, *args, **kwargs)

        with mock.patch.object(np, "cumsum", spy):
            got = RegressionTree(2).fit(X, g, h)
        assert dims[:2] == ([1, 1] if single else [2, 2])
        want = oracles.ArgsortRegressionTree(2).fit(X, g, h)
        assert oracles.tree_structure(got.root) == oracles.tree_structure(want.root)


# -- random forest ------------------------------------------------------


def test_forest_separable_oob_low():
    X, y = _separable(100, seed=1)
    forest = RandomForest(trees=30, max_depth=4, seed=0).fit(X, y)
    assert forest.oob_error is not None and forest.oob_error <= 0.1
    # brute-force depth-1 oracle: the single best threshold on feature 0
    stump = DecisionTree(max_depth=1).fit(X, y)
    stump_acc = float(np.mean(stump.predict(X) == y))
    assert stump_acc >= 0.9  # fixture really is separable


def test_forest_oob_close_to_held_out():
    X, y = _separable(160, seed=2, gap=0.9)
    X_tr, y_tr = X[:100], y[:100]
    X_te, y_te = X[100:], y[100:]
    forest = RandomForest(trees=50, max_depth=5, seed=1).fit(X_tr, y_tr)
    held_out = float(np.mean(forest.predict_with_proba(X_te)[0] != y_te))
    assert abs(forest.oob_error - held_out) <= 0.15


def test_forest_depth_zero_stump_is_majority():
    X, y = _separable(60, seed=4)
    y[:40] = 1  # make class 1 the clear majority
    forest = RandomForest(trees=1, max_depth=0, seed=0, bootstrap=False).fit(X, y)
    majority = int(np.bincount(y).argmax())
    assert np.all(forest.predict_with_proba(X)[0] == majority)
    # every row is in every tree's sample, so none is out of bag
    assert forest.oob_curve == [] and forest.oob_error is None


def test_forest_seed_determinism():
    X, y = _separable(80, seed=5)
    a = RandomForest(trees=20, max_depth=4, seed=9).fit(X, y)
    b = RandomForest(trees=20, max_depth=4, seed=9).fit(X, y)
    assert np.array_equal(a.predict_with_proba(X)[0], b.predict_with_proba(X)[0])
    assert a.oob_curve == b.oob_curve


# -- stacking ------------------------------------------------------------


def test_stacking_beats_or_matches_bases_when_all_correct():
    X, y = _separable(100, seed=6)
    model = train_stacking(X, y, "EL2", seed=0)
    acc = float(np.mean(model.predict_with_proba(X)[0] == y))
    base_accs = [float(np.mean(b.predict(X) == y)) for b in model.bases]
    assert acc >= max(base_accs) - 0.05


def test_stacking_xor_tracks_cart():
    X, y = _xor(240, seed=7)
    cart = DecisionTree(max_depth=4).fit(X, y)
    cart_acc = float(np.mean(cart.predict(X) == y))
    model = train_stacking(X, y, "EL2", seed=0)
    stack_acc = float(np.mean(model.predict_with_proba(X)[0] == y))
    assert cart_acc >= 0.9  # CART solves XOR; linear bases cannot
    assert stack_acc >= cart_acc - 0.05


def test_stacking_el2_2_variant_trains():
    X, y = _separable(90, seed=8)
    model = train_stacking(X, y, "EL2_2", seed=0)
    assert float(np.mean(model.predict_with_proba(X)[0] == y)) >= 0.9
    assert len(model.bases) == 5


# -- gradient boosting ---------------------------------------------------


def test_gbt_loss_strictly_decreasing_first_rounds():
    X, y = _separable(120, seed=9)
    model = train_gbt(X, y, rounds=10, depth=2, lr=0.3)
    losses = model.loss_curve
    assert len(losses) == 11
    for a, b in zip(losses, losses[1:]):
        assert b < a


def test_gbt_zero_rounds_predicts_majority():
    X, y = _separable(60, seed=10)
    y[:40] = 1
    model = train_gbt(X, y, rounds=0, depth=2, lr=0.1)
    assert np.all(model.predict_with_proba(X)[0] == 1)


def test_gbt_zero_lr_stays_at_prior_log_odds():
    X, y = _separable(60, seed=11)
    model = train_gbt(X, y, rounds=5, depth=2, lr=0.0)
    prior = math.log(y.mean() / (1 - y.mean()))
    assert np.allclose(model.decision_function(X), prior)


def _check_plan_cache(X, plan, node, leaves: list) -> None:
    """plan holds the child plans of node's split and of nothing else, down
    the whole tree; the plans of its leaves go to `leaves`."""
    if node.left is None:
        assert plan.children == {}
        leaves.append(plan)
        return
    key = (node.feature, node.threshold)
    assert list(plan.children) == [key]
    left = X[plan.rows, node.feature] <= node.threshold
    for child, rows, sub in zip(plan.children[key], (plan.rows[left], plan.rows[~left]),
                                (node.left, node.right)):
        assert np.array_equal(child.rows, rows)
        _check_plan_cache(X, child, sub, leaves)


def _split_plans(plan) -> list:
    return [plan] + [p for pair in plan.children.values() for c in pair for p in _split_plans(c)]


def _train_gbt_checking_plans(X, y, rounds, depth, lr):
    """train_gbt, checking after every round that the cached plans are the
    ones the round's tree visited.  Also returns the number of rounds whose
    tree made a leaf of a node that the tree before had split."""
    grow = RegressionTree.grow
    unsplit = []

    def grow_and_check(tree, X, g, h, plan, out=None):
        split_before = [p for p in _split_plans(plan) if p.children]
        grow(tree, X, g, h, plan, out)
        leaves = []
        _check_plan_cache(X, plan, tree.root, leaves)
        unsplit.append(any(p is q for p in split_before for q in leaves))
        return tree

    with mock.patch.object(RegressionTree, "grow", grow_and_check):
        model = train_gbt(X, y, rounds=rounds, depth=depth, lr=lr)
    return model, sum(unsplit)


def _assert_same_gbt(got, want, fresh):
    assert got.base_score == want.base_score
    assert got.loss_curve == want.loss_curve
    assert len(got.trees) == len(want.trees)
    for a, b in zip(got.trees, want.trees):
        assert oracles.tree_structure(a.root) == oracles.tree_structure(b.root)
    assert np.array_equal(got.decision_function(fresh), want.decision_function(fresh))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_train_gbt_equals_per_round_refit(data):
    n = data.draw(st.integers(1, 30))
    X = _grid_rows(data.draw, n, 2)
    columns = [X, -X[:, :1]]  # a mirror of column 0 ties every split on it
    if data.draw(st.booleans()):
        columns.append(np.full((n, 1), data.draw(st.sampled_from([0.0, 2.5]))))
    if data.draw(st.booleans()):
        # constant on one side of every split of column 0 at 1.5
        columns.append(np.where(X[:, :1] <= 1, 1.0, _grid_rows(data.draw, n, 1)))
    X = np.hstack(columns)
    if data.draw(st.integers(0, 4)) == 0:
        X = np.full_like(X, 1.0)
    dup = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
    X = np.vstack([X, X[dup]])
    if data.draw(st.booleans()):
        y = np.zeros(len(X))
        y[data.draw(st.integers(0, len(X) - 1))] = 1.0
    else:
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X))))
    rounds = data.draw(st.integers(0, 15))
    depth = data.draw(st.integers(1, 4))
    lr = data.draw(st.sampled_from([0.0, 0.3]))
    got, _ = _train_gbt_checking_plans(X, y, rounds, depth, lr)
    assert len(got.trees) == rounds
    fresh = np.vstack([X, _grid_rows(data.draw, 5, X.shape[1], levels=4) - 0.5])
    # The refit loop shares the tree code; the per-node sort trees do not.
    for tree in (RegressionTree, oracles.ArgsortRegressionTree):
        want = oracles.train_gbt_refit(X, y, rounds=rounds, depth=depth, lr=lr, tree=tree)
        _assert_same_gbt(got, want, fresh)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_train_gbt_with_a_separating_vote_equals_per_round_refit(data):
    # Like Layer 2's labeled set: one 0/1 column is the label, so each tree
    # cuts it at the root into two children of one gradient each, of 1 to
    # many rows; an all-negative y makes the root itself single-valued.
    n = data.draw(st.integers(2, 120))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), float)
    if data.draw(st.integers(0, 4)) == 0:
        y[:] = 0.0
    X = np.column_stack([_grid_rows(data.draw, n, 2, levels=6), y, 1.0 - y])
    rounds = data.draw(st.integers(1, 12))
    depth = data.draw(st.integers(1, 3))
    lr = data.draw(st.sampled_from([0.1, 0.3, 1.0]))
    got, _ = _train_gbt_checking_plans(X, y, rounds, depth, lr)
    fresh = np.vstack([X, _grid_rows(data.draw, 5, X.shape[1], levels=4) - 0.5])
    for tree in (RegressionTree, oracles.ArgsortRegressionTree):
        want = oracles.train_gbt_refit(X, y, rounds=rounds, depth=depth, lr=lr, tree=tree)
        _assert_same_gbt(got, want, fresh)


def test_train_gbt_drops_the_plans_of_a_node_no_longer_split():
    # Late rounds leave nodes unsplit once the gradients in them are within
    # the minimum gain of each other; those nodes' child plans must go.
    X = np.array([[0, 1], [0, 1], [3, 0], [1, 1], [3, 0], [2, 1], [0, 3], [0, 1], [1, 1]], float)
    y = np.array([0, 0, 0, 0, 1, 1, 0, 0, 1], float)
    got, unsplit = _train_gbt_checking_plans(X, y, 60, 3, 0.3)
    assert unsplit > 0
    _assert_same_gbt(got, oracles.train_gbt_refit(X, y, rounds=60, depth=3, lr=0.3), X)


# -- self-training bagging ----------------------------------------------


def test_ressel_empty_unlabeled_equals_bagging():
    X, y = _separable(80, seed=12)
    probe = np.random.default_rng(0).normal(0, 2, size=(50, 2))
    ressel = train_ressel(X, y, np.empty((0, 2)), "EL4_1", bags=7, seed=5)
    bagging = oracles.train_bagging(X, y, "EL4_1", bags=7, seed=5)
    for a, b in zip(ressel.predict_with_proba(probe), bagging.predict_with_proba(probe)):
        assert a.tobytes() == b.tobytes()


def test_ressel_oob_sequences_non_increasing():
    X, y = _separable(40, seed=13, gap=0.8)
    U = np.random.default_rng(1).normal(0, 1.5, size=(150, 2))
    model = train_ressel(X, y, U, "EL4_1", bags=5, add_per_round=10, seed=2)
    assert model.oob_sequences  # self-training actually ran
    for seq in model.oob_sequences:
        for a, b in zip(seq, seq[1:]):
            assert b <= a


def test_ressel_unlabeled_does_not_hurt():
    rng = np.random.default_rng(14)
    X_lab = np.vstack([rng.normal(-1.5, 0.4, (5, 2)), rng.normal(1.5, 0.4, (5, 2))])
    y_lab = np.array([0] * 5 + [1] * 5, np.int64)
    X_unl = np.vstack([rng.normal(-1.5, 0.4, (100, 2)), rng.normal(1.5, 0.4, (100, 2))])
    X_te = np.vstack([rng.normal(-1.5, 0.4, (100, 2)), rng.normal(1.5, 0.4, (100, 2))])
    y_te = np.array([0] * 100 + [1] * 100, np.int64)
    ressel = train_ressel(X_lab, y_lab, X_unl, "EL4_1", bags=9, add_per_round=10, seed=3)
    bagging = oracles.train_bagging(X_lab, y_lab, "EL4_1", bags=9, seed=3)
    acc_r = float(np.mean(ressel.predict_with_proba(X_te)[0] == y_te))
    acc_b = float(np.mean(bagging.predict_with_proba(X_te)[0] == y_te))
    assert acc_r >= acc_b - 0.02


def test_ressel_el4_2_roster_trains():
    X, y = _separable(60, seed=15)
    U = np.random.default_rng(2).normal(0, 2, size=(40, 2))
    model = train_ressel(X, y, U, "EL4_2", bags=5, seed=0)
    assert float(np.mean(model.predict_with_proba(X)[0] == y)) >= 0.9


def _roster(factories):
    """A patch that gives train_ressel these base classifiers, whatever
    variant it is asked for."""
    return mock.patch.object(ressel, "base_roster", lambda variant: factories)


def _ressel_both_ways(X, y, U, variant, add_per_round, max_rounds):
    """(model, batches) of train_ressel as it is, checking every round's
    batch against the whole-pool choice on the same pool, and of
    train_ressel choosing with the whole-pool oracle."""
    runs = []
    for choose in (ressel._confident_batch, oracles.ressel_batch_full_pool):
        batches = []

        def record(clf, X_unlabeled, pool, take, choose=choose):
            got = choose(clf, X_unlabeled, pool, take)
            want = oracles.ressel_batch_full_pool(clf, X_unlabeled, pool, take)
            assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
            assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
            batches.append((pool[got[0]].tolist(), got[1].tolist()))
            return got

        with mock.patch.object(ressel, "_confident_batch", record):
            model = train_ressel(X, y, U, variant, bags=5, add_per_round=add_per_round,
                                 seed=4, max_rounds=max_rounds)
        runs.append((model, batches))
    return runs


def _assert_same_ressel(runs, probe):
    (got, got_batches), (want, want_batches) = runs
    assert got_batches == want_batches
    assert got.oob_sequences == want.oob_sequences
    for a, b in zip(got.predict_with_proba(probe), want.predict_with_proba(probe)):
        assert a.tobytes() == b.tobytes()


def _band(rng, n):
    """n rows in the band between _separable's two blobs."""
    return np.column_stack([rng.uniform(-0.5, 0.5, n), rng.normal(0.0, 1.0, n)])


def _ressel_data(rng, n_mixed, n_sure, classes, at):
    """(X, y, U): _separable's blobs plus a band between them labeled at
    random, and a pool of n_mixed band rows, which few learners call with
    confidence 0.5, with n_sure rows far past the blobs of the given
    classes inserted at position at."""
    X, y = _separable(40, seed=int(rng.integers(1 << 16)))
    X = np.vstack([X, _band(rng, 30)])
    y = np.concatenate([y, rng.integers(0, 2, 30)])
    mixed = _band(rng, n_mixed)
    side = np.asarray(classes)[rng.integers(0, len(classes), n_sure)] * 2.0 - 1.0
    sure = np.column_stack([side * rng.uniform(20.0, 30.0, n_sure), rng.normal(0.0, 1.0, n_sure)])
    at = min(at, n_mixed)
    return X, y, np.vstack([mixed[:at], sure, mixed[at:]])


@settings(max_examples=30, deadline=None)
@given(
    st.data(),
    st.sampled_from(["EL4_1", "EL4_2", "custom"]),
    st.sampled_from([1, 2, 10]),
)
def test_ressel_settled_scan_equals_full_pool(data, roster, add_per_round):
    # The sure rows sit anywhere in the pool, so a scan can settle in the
    # first chunk, across a 512-row boundary or never (no sure rows, or
    # sure rows of one class only).
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    n_mixed = data.draw(st.sampled_from([0, 3, 505, 515, 1030]))
    n_sure = data.draw(st.integers(0 if n_mixed else 1, 30))
    classes = data.draw(st.sampled_from([(0, 1), (0,), (1,)]))
    at = data.draw(st.sampled_from([0, 500, 508, 520, 1030]))
    X, y, U = _ressel_data(rng, n_mixed, n_sure, classes, at)
    custom = [
        lambda s: KnnClassifier(k=3),
        lambda s: GaussianNB(),
        lambda s: DecisionTree(max_depth=2, seed=s),
        lambda s: MarginClassifier(),
    ]
    with _roster(custom) if roster == "custom" else contextlib.nullcontext():
        runs = _ressel_both_ways(X, y, U, roster, add_per_round, data.draw(st.integers(1, 4)))
    _assert_same_ressel(runs, np.vstack([U, X]))


def test_ressel_scan_settles_across_a_chunk_boundary():
    # Sure rows of both classes start at pool position 508, so a kNN bag's
    # first scan reads two of the pool's four chunks and stops there; its
    # later scans, after 10 rows leave the pool per round, settle in the
    # first chunk or across the boundary.  No scan reads the last chunk.
    X, y, U = _ressel_data(np.random.default_rng(21), 2000, 30, (0, 1), 508)
    knn = _roster([lambda s: KnnClassifier(k=10)])
    with knn:
        _assert_same_ressel(_ressel_both_ways(X, y, U, "kNN", 10, 3), np.vstack([U, X]))
    reads, scans = [], []
    predict_proba, choose = KnnClassifier.predict_proba, ressel._confident_batch

    def reading(clf, X):
        reads.append(len(X))
        return predict_proba(clf, X)

    def scanning(*args):
        scans.append(len(reads))
        return choose(*args)

    with knn, mock.patch.object(KnnClassifier, "predict_proba", reading), \
            mock.patch.object(ressel, "_confident_batch", scanning):
        train_ressel(X, y, U, "kNN", bags=5, add_per_round=10, seed=4, max_rounds=3)
    chunks = [n for n in reads if n >= ressel._SCAN_ROWS]  # OOB checks predict under 40 rows
    assert all(n == ressel._SCAN_ROWS for n in chunks)
    assert len(scans) < len(chunks) < 2 * len(scans)


# -- extended isolation forest -------------------------------------------


def test_c_factor_matches_closed_form():
    # standard normalizer: c(n) = 2(ln(n-1) + gamma) - 2(n-1)/n
    gamma = 0.5772156649
    assert c_factor(1) == 0.0
    assert c_factor(2) == 1.0
    for n in (10, 256, 4096):
        want = 2.0 * (math.log(n - 1) + gamma) - 2.0 * (n - 1) / n
        assert c_factor(n) == pytest.approx(want, rel=1e-9)
    # the approximation tracks the exact harmonic form within a percent
    h = sum(1.0 / k for k in range(1, 256))
    exact = 2.0 * h - 2.0 * 255 / 256
    assert c_factor(256) == pytest.approx(exact, rel=0.01)


def test_eif_outlier_scores_above_duplicate_cluster():
    X = np.vstack([np.zeros((100, 2)), [[8.0, 8.0]]])
    for seed in range(5):
        forest = ExtendedIsolationForest(trees=50, sample_size=64, seed=seed).fit(X)
        scores = forest.score(X)
        assert scores[-1] > float(np.median(scores[:100]))


def test_eif_identical_points_equal_scores():
    X = np.ones((30, 3))
    forest = ExtendedIsolationForest(trees=20, sample_size=16, seed=0).fit(X)
    scores = forest.score(X)
    assert np.allclose(scores, scores[0])


def test_eif_scores_bounded():
    rng = np.random.default_rng(3)
    X = rng.normal(0, 1, size=(64, 4))
    forest = ExtendedIsolationForest(trees=25, sample_size=32, seed=1).fit(X)
    scores = forest.score(X)
    assert np.all(scores > 0.0) and np.all(scores < 1.0)


def test_eif_extension_level_zero_accepted():
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, size=(40, 3))
    forest = ExtendedIsolationForest(trees=10, sample_size=16, extension_level=0, seed=2).fit(X)
    assert forest.score(X).shape == (40,)


# -- row-local scores ----------------------------------------------------

# Every learner and variant: a row's score must depend on that row alone.
_ROW_LOCAL = (
    "KnnClassifier", "GaussianNB", "LogisticRegression", "MarginClassifier", "DecisionTree",
    "RandomForest", "ExtendedIsolationForest", "EL1", "EL2", "EL2_2", "EL3", "EL4_1", "EL4_2",
    "EL5",
)


@functools.lru_cache(maxsize=None)
def _row_local_case(name: str, seed: int):
    """(pool, scorer): a pool of unlabeled rows and a function from rows to
    the named learner's or variant's labels and scores, fitted on labeled
    rows of 19 features (as Layer 2's) or 4, of mixed magnitudes."""
    rng = np.random.default_rng(seed)
    d = 19 if seed % 2 == 0 else 4
    scale = 10.0 ** rng.uniform(-3, 3, size=d)
    X = rng.normal(size=(120, d)) * scale
    y = (X[:, 0] / scale[0] + rng.normal(0, 0.7, size=120) > 0.5).astype(np.int64)
    U = rng.normal(size=(300, d)) * scale * rng.uniform(0.5, 2.0, size=d)
    if name in VARIANTS:
        cfg = EnsembleConfig(
            ensemble_variant=name, rf_trees=10, gbt_rounds=10, ressel_bags=4,
            ressel_max_rounds=3, eif_trees=10, eif_sample_size=64,
        )
        return U, train_el(X, y, U, cfg, seed=seed).predict_with_proba
    if name == "ExtendedIsolationForest":
        forest = ExtendedIsolationForest(trees=10, sample_size=64, seed=seed).fit(U)
        return U, lambda Q: (forest.score(Q),)
    kinds = {
        "KnnClassifier": KnnClassifier, "GaussianNB": GaussianNB,
        "LogisticRegression": LogisticRegression, "MarginClassifier": MarginClassifier,
        "DecisionTree": DecisionTree,
        "RandomForest": lambda: RandomForest(trees=10, seed=seed),
    }
    model = kinds[name]().fit(X, y)
    if name == "RandomForest":
        return U, model.predict_with_proba
    return U, lambda Q: (model.predict(Q), model.predict_proba(Q))


@pytest.mark.parametrize("name", _ROW_LOCAL)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_scores_are_row_local(name, data):
    # A rating's label and score must not depend on which other ratings
    # were scored with it: any subset of the pool, in any order, single
    # rows included, gets the bits the whole pool's call gives those rows.
    U, scorer = _row_local_case(name, data.draw(st.integers(0, 3)))
    order = data.draw(st.permutations(range(len(U))))
    rows = np.array(order[: data.draw(st.one_of(st.just(1), st.integers(1, len(U))))])
    for got, want in zip(scorer(U[rows]), scorer(U)):
        assert got.tobytes() == want[rows].tobytes()


# -- variant driver and persistence --------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_train_el_all_variants_classify(variant):
    X, y = _separable(80, seed=16)
    U = np.random.default_rng(5).normal(0, 2, size=(30, 2))
    cfg = EnsembleConfig(
        ensemble_variant=variant, rf_trees=15, gbt_rounds=15, ressel_bags=5,
        eif_trees=20, eif_sample_size=16,
    )
    model = train_el(X, y, U, cfg, seed=0)
    noisy, scores = classify_uncertain(model, U)
    assert noisy.dtype == bool and noisy.shape == (len(U),)
    assert scores.dtype == np.float64 and scores.shape == (len(U),)
    # the same seed trains the same model, bit for bit
    first = model.predict_with_proba(U)
    again = train_el(X, y, U, cfg, seed=0).predict_with_proba(U)
    assert first[0].tobytes() == again[0].tobytes()
    assert first[1].tobytes() == again[1].tobytes()


def _votes_of(members, U):
    return sum(m.predict(U) for m in members)


@pytest.mark.parametrize("variant, scorer", [
    ("EL1", "majority_vote"), ("EL3", "decision_function"), ("EL4_2", "majority_vote"),
])
def test_classify_with_scores_scores_once(variant, scorer):
    """Labels and scores equal the rule applied to the model's own members,
    from one scoring pass: a method of the model, or the function of its
    module that the bagged models share."""
    X, y = _separable(80, seed=16)
    U = np.random.default_rng(5).normal(0, 2, size=(30, 2))
    cfg = EnsembleConfig(ensemble_variant=variant, rf_trees=15, gbt_rounds=15, ressel_bags=5)
    inner = train_el(X, y, U, cfg, seed=0)
    owner = type(inner) if hasattr(type(inner), scorer) else sys.modules[type(inner).__module__]
    method = getattr(owner, scorer)
    with mock.patch.object(owner, scorer, autospec=True, side_effect=method) as spy:
        labels, scores = inner.predict_with_proba(U)
    assert spy.call_count == 1
    if variant == "EL1":
        votes = _votes_of(inner.trees, U)
        want, proba = votes > len(inner.trees) - votes, votes / len(inner.trees)
    elif variant == "EL3":
        z = np.full(len(U), inner.base_score)
        for tree in inner.trees:
            z += inner.lr * tree.predict(U)
        want, proba = z > 0.0, _sigmoid(z)
    else:
        votes = _votes_of(inner.classifiers, U)
        want, proba = votes > len(inner.classifiers) / 2.0, votes / len(inner.classifiers)
    assert labels.tobytes() == want.astype(np.int64).tobytes()
    assert scores.tobytes() == proba.tobytes()
    assert 0 < labels.sum() < len(U)


def test_el5_with_one_uncertain_rating_passes_it_as_clean():
    X, y = _separable(20, seed=16)
    U = np.ones((1, 2))
    model = train_el(X, y, U, EnsembleConfig(ensemble_variant="EL5"), seed=0)
    noisy, scores = classify_uncertain(model, U)
    assert not noisy.any() and scores.tolist() == [0.0]


def test_el5_warns_when_it_labels_nothing_noisy(caplog):
    # The default cut of 0.8 can sit above every anomaly score of a small
    # Uncertain set; the warning names the highest score and the cut.
    U = np.random.default_rng(18).normal(size=(60, 2))
    for cut in (0.99, 0.0):
        cfg = EnsembleConfig(ensemble_variant="EL5", eif_trees=10, eif_score_cut=cut)
        model = train_el(np.empty((0, 2)), np.empty(0), U, cfg, seed=0)
        caplog.clear()
        with caplog.at_level("WARNING", logger="noisegate.ensemble"):
            noisy, scores = classify_uncertain(model, U)
        warned = [r.getMessage() for r in caplog.records if r.name == "noisegate.ensemble"]
        if cut:
            assert not noisy.any()
            assert warned == [
                f"EL5 labels none of 60 Uncertain ratings Noisy: highest score "
                f"{scores.max():.3f}, eif_score_cut {cut}"
            ]
        else:
            assert noisy.all() and warned == []


def test_train_el_single_class_constant_guard():
    X = np.random.default_rng(6).normal(0, 1, size=(20, 2))
    y = np.ones(20, np.int64)
    model = train_el(X, y, np.empty((0, 2)), EnsembleConfig(ensemble_variant="EL3"), seed=0)
    probe = np.random.default_rng(7).normal(0, 1, size=(5, 2))
    assert np.all(model.predict_with_proba(probe)[0] == 1)


def test_train_el_rejects_unknown_variant_before_single_class_guard():
    X = np.random.default_rng(6).normal(0, 1, size=(20, 2))
    with pytest.raises(ValueError, match="unknown variant 'EL9'"):
        train_el(X, np.ones(20, np.int64), X, EnsembleConfig(ensemble_variant="EL9"))


def test_classify_uncertain_empty_set():
    X, y = _separable(40, seed=17)
    model = train_el(
        X, y, np.empty((0, 2)), EnsembleConfig(ensemble_variant="EL3", gbt_rounds=5), seed=0
    )
    noisy, scores = classify_uncertain(model, np.empty((0, 2)))
    assert noisy.shape == scores.shape == (0,) and noisy.dtype == bool


def test_classify_matches_stump_hand_evaluation():
    """Feature-0 threshold stump applied by hand to 10 uncertain vectors."""
    X, y = _separable(100, seed=18)
    stump = DecisionTree(max_depth=1).fit(X, y)
    rng = np.random.default_rng(8)
    U = rng.normal(0, 2, size=(10, 2))
    got = stump.predict(U)
    # hand-apply: read the learned threshold off the root node
    root = stump.root
    assert root.left.left is None and root.right.left is None  # both leaves
    want = np.where(U[:, root.feature] <= root.threshold,
                    root.left.value, root.right.value)
    assert np.array_equal(got, want)


def test_classification_csv_roundtrip(tmp_path):
    users, items = np.array([1, 1, 2]), np.array([2, 3, 1])
    noisy, scores = np.array([True, False, True]), np.array([0.0, 0.25, 0.5])
    p = tmp_path / "ensemble.csv"
    write_classification(users, items, noisy, scores, "EL3", p)
    back = read_classification(p, "EL3")
    for got, want in zip(back, (users, items, noisy, scores)):
        assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="variant 'EL3', expected 'EL1'"):
        read_classification(p, "EL1")


_CONTRACT_CASES = (*VARIANTS, "single-class", "EL5-one-row")


def _contract_case(case: str):
    """(model, U): case's learner from train_el, with the Uncertain rows it
    is scored on.  The two constant cases are a single-class training set
    (under EL3) and EL5 with one Uncertain row."""
    X, y = _separable(80, seed=19)
    U = np.random.default_rng(9).normal(0, 2, size=(30, 2))
    if case == "single-class":
        case, y = "EL3", np.ones(len(y), np.int64)
    elif case == "EL5-one-row":
        case, U = "EL5", U[:1]
    cfg = EnsembleConfig(
        ensemble_variant=case, rf_trees=15, gbt_rounds=15, ressel_bags=5,
        eif_trees=20, eif_sample_size=16, eif_score_cut=0.5,
    )
    return train_el(X, y, U, cfg, seed=0), U


@pytest.mark.parametrize("case", _CONTRACT_CASES)
def test_predict_with_proba_is_the_layer2_contract(case):
    """Every learner train_el returns labels and scores each row in one
    predict_with_proba call: int64 labels in {0, 1} and float64 scores,
    exactly what classify_uncertain makes of them."""
    model, U = _contract_case(case)
    labels, scores = model.predict_with_proba(U)
    assert labels.dtype == np.int64 and labels.shape == (len(U),)
    assert scores.dtype == np.float64 and scores.shape == (len(U),)
    assert set(labels.tolist()) <= {0, 1}
    noisy, got = classify_uncertain(model, U)
    assert noisy.tobytes() == (labels == 1).tobytes()
    assert got.tobytes() == scores.tobytes()


def test_el5_labels_noisy_strictly_above_its_cut():
    model, U = _contract_case("EL5")
    scores = model.score(U)
    model.score_cut = float(np.sort(scores)[len(U) // 2])
    labels, got = model.predict_with_proba(U)
    assert got.tobytes() == scores.tobytes()
    assert labels.tolist() == (scores > model.score_cut).astype(np.int64).tolist()
    assert 0 < labels.sum() < len(U) // 2 + 1


@pytest.mark.parametrize("case", _CONTRACT_CASES)
def test_dimension_mismatch_raises(case):
    model, _ = _contract_case(case)
    for shape in ((3, 5), (3, 1), (0, 3), (3,), (3, 2, 1)):
        with pytest.raises(ValueError):
            model.predict_with_proba(np.zeros(shape))
