"""Layer-2 learners: forest, stacking, boosting, self-training, isolation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate.ensemble import (
    VARIANTS,
    EnsembleConfig,
    classify_uncertain,
    read_classification,
    train_el,
    write_classification,
)
from noisegate.ensemble.boosting import train_gbt
from noisegate.ensemble.forest import RandomForest
from noisegate.ensemble.isolation import ExtendedIsolationForest, c_factor
from noisegate.ensemble.learners import KnnClassifier, LogisticRegression, MarginClassifier
from noisegate.ensemble.ressel import train_bagging, train_ressel
from noisegate.ensemble.stacking import train_stacking
from noisegate.ensemble.trees import DecisionTree, RegressionTree, presort

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
        model = learner(reg=reg, seed=3).fit(X, y)
        assert np.linalg.norm(_objective_gradient(model, X, y)) < 1e-8
        again = learner(reg=reg, seed=3).fit(X, y)
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
    assert oracles.tree_structure(RegressionTree(depth).fit(X, g, h, presort(X)).root) == want


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
    held_out = float(np.mean(forest.predict(X_te) != y_te))
    assert abs(forest.oob_error - held_out) <= 0.15


def test_forest_depth_zero_stump_is_majority():
    X, y = _separable(60, seed=4)
    y[:40] = 1  # make class 1 the clear majority
    forest = RandomForest(trees=1, max_depth=0, seed=0, bootstrap=False).fit(X, y)
    majority = int(np.bincount(y).argmax())
    assert np.all(forest.predict(X) == majority)


def test_forest_seed_determinism():
    X, y = _separable(80, seed=5)
    a = RandomForest(trees=20, max_depth=4, seed=9).fit(X, y)
    b = RandomForest(trees=20, max_depth=4, seed=9).fit(X, y)
    assert np.array_equal(a.predict(X), b.predict(X))
    assert a.oob_curve == b.oob_curve


# -- stacking ------------------------------------------------------------


def test_stacking_beats_or_matches_bases_when_all_correct():
    X, y = _separable(100, seed=6)
    model = train_stacking(X, y, "EL2", seed=0)
    acc = float(np.mean(model.predict(X) == y))
    base_accs = [float(np.mean(b.predict(X) == y)) for b in model.bases]
    assert acc >= max(base_accs) - 0.05


def test_stacking_xor_tracks_cart():
    X, y = _xor(240, seed=7)
    cart = DecisionTree(max_depth=4).fit(X, y)
    cart_acc = float(np.mean(cart.predict(X) == y))
    model = train_stacking(X, y, "EL2", seed=0)
    stack_acc = float(np.mean(model.predict(X) == y))
    assert cart_acc >= 0.9  # CART solves XOR; linear bases cannot
    assert stack_acc >= cart_acc - 0.05


def test_stacking_el2_2_variant_trains():
    X, y = _separable(90, seed=8)
    model = train_stacking(X, y, "EL2_2", seed=0)
    assert float(np.mean(model.predict(X) == y)) >= 0.9
    assert len(model.bases) == 5


# -- gradient boosting ---------------------------------------------------


def test_gbt_loss_strictly_decreasing_first_rounds():
    X, y = _separable(120, seed=9)
    model = train_gbt(X, y, rounds=10, depth=2, lr=0.3, seed=0)
    losses = model.loss_curve
    assert len(losses) == 11
    for a, b in zip(losses, losses[1:]):
        assert b < a


def test_gbt_zero_rounds_predicts_majority():
    X, y = _separable(60, seed=10)
    y[:40] = 1
    model = train_gbt(X, y, rounds=0, depth=2, lr=0.1, seed=0)
    assert np.all(model.predict(X) == 1)


def test_gbt_zero_lr_stays_at_prior_log_odds():
    X, y = _separable(60, seed=11)
    model = train_gbt(X, y, rounds=5, depth=2, lr=0.0, seed=0)
    prior = math.log(y.mean() / (1 - y.mean()))
    assert np.allclose(model.decision_function(X), prior)


# -- self-training bagging ----------------------------------------------


def test_ressel_empty_unlabeled_equals_bagging():
    X, y = _separable(80, seed=12)
    probe = np.random.default_rng(0).normal(0, 2, size=(50, 2))
    ressel = train_ressel(X, y, np.empty((0, 2)), base="EL4_1", bags=7, seed=5)
    bagging = train_bagging(X, y, base="EL4_1", bags=7, seed=5)
    assert np.array_equal(ressel.predict(probe), bagging.predict(probe))


def test_ressel_oob_sequences_non_increasing():
    X, y = _separable(40, seed=13, gap=0.8)
    U = np.random.default_rng(1).normal(0, 1.5, size=(150, 2))
    model = train_ressel(X, y, U, base="EL4_1", bags=5, add_per_round=10, seed=2)
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
    ressel = train_ressel(X_lab, y_lab, X_unl, base="EL4_1", bags=9, add_per_round=10, seed=3)
    bagging = train_bagging(X_lab, y_lab, base="EL4_1", bags=9, seed=3)
    acc_r = float(np.mean(ressel.predict(X_te) == y_te))
    acc_b = float(np.mean(bagging.predict(X_te) == y_te))
    assert acc_r >= acc_b - 0.02


def test_ressel_el4_2_roster_trains():
    X, y = _separable(60, seed=15)
    U = np.random.default_rng(2).normal(0, 2, size=(40, 2))
    model = train_ressel(X, y, U, base="EL4_2", bags=5, seed=0)
    assert float(np.mean(model.predict(X) == y)) >= 0.9


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
    first = model.classify_with_scores(U)
    again = train_el(X, y, U, cfg, seed=0).classify_with_scores(U)
    assert first[0].tobytes() == again[0].tobytes()
    assert first[1].tobytes() == again[1].tobytes()


def test_train_el_single_class_constant_guard():
    X = np.random.default_rng(6).normal(0, 1, size=(20, 2))
    y = np.ones(20, np.int64)
    model = train_el(X, y, np.empty((0, 2)), EnsembleConfig(ensemble_variant="EL3"), seed=0)
    probe = np.random.default_rng(7).normal(0, 1, size=(5, 2))
    assert np.all(model.classify(probe) == 1)


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


def test_dimension_mismatch_raises():
    X, y = _separable(40, seed=19)
    model = train_el(
        X, y, np.empty((0, 2)), EnsembleConfig(ensemble_variant="EL3", gbt_rounds=5), seed=0
    )
    with pytest.raises(ValueError):
        model.classify(np.zeros((3, 5)))
