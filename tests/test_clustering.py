"""K-means user clustering for group validation."""

from __future__ import annotations

import numpy as np
import pytest

from noisegate.evaluation.clustering import cluster_users


def _two_clouds(per_cloud=10, spread=0.2, seed=5):
    rng = np.random.default_rng(seed)
    vectors = {}
    for i in range(per_cloud):
        vectors[i] = np.array([-5.0, -5.0]) + rng.normal(0, spread, 2)
    for i in range(per_cloud, 2 * per_cloud):
        vectors[i] = np.array([5.0, 5.0]) + rng.normal(0, spread, 2)
    return vectors


def _rows(vectors) -> np.ndarray:
    """The vectors as one row per user, in ascending user id."""
    return np.array([vectors[u] for u in sorted(vectors)], dtype=float)


def test_k1_centroid_is_mean():
    vectors = {1: [0.0, 0.0], 2: [1.0, 2.0], 3: [2.0, 4.0]}
    result = cluster_users(_rows(vectors), k=1, seed=0)
    assert result.k == 1
    assert set(result.labels.tolist()) == {0}
    want = np.mean([vectors[u] for u in sorted(vectors)], axis=0)
    assert np.allclose(result.centroids[0], want, atol=1e-12)


def test_two_clouds_recovered_exactly():
    vectors = _two_clouds()
    result = cluster_users(_rows(vectors), k=2, seed=3)
    low = set(result.labels[:10].tolist())
    high = set(result.labels[10:].tolist())
    assert len(low) == 1 and len(high) == 1 and low != high


def test_converged_fixed_point_invariants():
    # at convergence every user sits with its nearest centroid and every
    # non-empty centroid is the mean of its members
    vectors = _two_clouds(per_cloud=15, spread=0.5, seed=11)
    X = _rows(vectors)
    result = cluster_users(X, k=3, seed=7)
    d2 = np.sum((X[:, None, :] - result.centroids[None, :, :]) ** 2, axis=2)
    for i in range(len(X)):
        c = result.labels[i]
        assert d2[i, c] == pytest.approx(d2[i].min(), abs=1e-12)
    for c in range(result.k):
        members = X[result.labels == c]
        if len(members):
            assert np.allclose(result.centroids[c], members.mean(axis=0), atol=1e-9)


def test_inertia_non_increasing():
    vectors = _two_clouds(per_cloud=20, spread=2.0, seed=9)
    result = cluster_users(_rows(vectors), k=4, seed=1)
    curve = result.inertia_curve
    assert len(curve) >= 1
    assert all(b <= a + 1e-9 for a, b in zip(curve, curve[1:]))


def test_deterministic_per_seed():
    vectors = _two_clouds(per_cloud=12, spread=1.0, seed=21)
    a = cluster_users(_rows(vectors), k=3, seed=42)
    b = cluster_users(_rows(vectors), k=3, seed=42)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia_curve == b.inertia_curve


def test_k_lowered_with_warning(caplog):
    vectors = {1: [0.0], 2: [1.0], 3: [2.0]}
    with caplog.at_level("WARNING", logger="noisegate.evaluation.clustering"):
        result = cluster_users(_rows(vectors), k=10, seed=0)
    assert result.k == 3
    assert any("lowering k" in r.message for r in caplog.records)
    assert len(set(result.labels.tolist())) <= 3


def test_every_user_assigned_in_range():
    vectors = _two_clouds(per_cloud=8, spread=1.5, seed=2)
    result = cluster_users(_rows(vectors), k=5, seed=4)
    assert len(result.labels) == len(vectors)
    assert all(0 <= c < result.k for c in result.labels.tolist())
    assert np.all(np.isfinite(result.centroids))


def test_no_users_raises():
    with pytest.raises(ValueError, match="no users"):
        cluster_users(np.zeros((0, 2)), k=1)


def test_identical_vectors_single_effective_cluster():
    vectors = {u: [1.0, 1.0] for u in range(6)}
    result = cluster_users(_rows(vectors), k=3, seed=0)
    # zero distance everywhere: inertia is 0 from the first pass
    assert result.inertia_curve[-1] == 0.0

