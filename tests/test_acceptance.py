"""Acceptance gate: one test per criterion, at the stated tolerance.

The terminal summary hook in conftest prints one PASS/FAIL line per
criterion after every run.  Criterion 8 is informational by contract: it
records detector flag counts without asserting an ordering.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from noisegate.board import CONSENSUS, BoardConfig, run_board
from noisegate.board.nf2 import nf2_rnd
from noisegate.board.nf3 import consistency
from noisegate.board.nf4 import FuzzyProfile, dissim, manhattan, nf4_fuzzify
from noisegate.board.verdict import DETECTOR_IDS, Consensus, Verdict
from noisegate.dataset import Scale, SplitSpec, split_train_test
from noisegate.ensemble.boosting import train_gbt
from noisegate.ensemble.forest import RandomForest
from noisegate.ensemble.isolation import ExtendedIsolationForest
from noisegate.ensemble.ressel import train_ressel
from noisegate.evaluation.clustering import cluster_users
from noisegate.evaluation.deltas import QUADRANTS, Quadrant, plane_positive, quadrant
from noisegate.pipeline import (
    NoiseKind,
    config_from_dict,
    inject_noise,
    reports_equal,
    run_framework,
)
from noisegate.seeding import derive_seed
from noisegate.signature import detect_optout
from noisegate.synth import movielens_sized_tables, planted_tables, write_dataset_csvs

from .conftest import ACCEPTANCE_INFO, MINI_DIR, make_table, noisy_flags
from .oracles import ranking_metrics_loop, serendipity_loop, train_bagging
from .test_metrics import _metrics
from .test_nf2 import _brute_rnd
from .test_serendipity import _genre_map, _one


# -- criterion 1: partition & coverage on the bundled mini dataset --------


def test_criterion_1_partition_and_coverage(tmp_path):
    t0 = time.monotonic()
    cfg = config_from_dict(
        {
            "ratings_path": str(MINI_DIR / "ratings.csv"),
            "movies_path": str(MINI_DIR / "movies.csv"),
            "out_dir": str(tmp_path),
            "run_id": "mini",
            "min_activity": 5,
        }
    )
    result = run_framework(cfg)
    votes = result.votes
    detect_size = result.report_dict["counts"]["detect"]

    # Layer 1 partitions the detect split into Noisy/Clean/Uncertain
    assert len(votes) == detect_size
    consensus_counts = {c: 0 for c in Consensus}
    for code in votes.consensus.tolist():
        consensus_counts[CONSENSUS[code]] += 1
    assert sum(consensus_counts.values()) == detect_size

    # after Layer 2 no Uncertain remains and every rating carries a label
    assert result.noisy.dtype == bool and result.noisy.shape == (len(votes),)

    # Venn region sums plus the untouched complement cover the detect split
    venn = result.report_dict["board"]["venn"]
    flagged = sum(v for k, v in venn.items() if k != "none")
    assert flagged + venn.get("none", 0) == detect_size

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    ACCEPTANCE_INFO[1] = f"{elapsed:.1f}s, detect split {detect_size} ratings"


# -- criterion 2: formula oracles, >= 10 fixtures each at 1e-9 ------------


def test_criterion_2_formula_oracles():
    tol = 1e-9
    scale = Scale()
    rng = np.random.default_rng(20)

    # NF3 consistency: c = |r - p| / span
    assert consistency(5.0, 4.0, scale) == pytest.approx(1.0 / 4.5, abs=tol)
    for _ in range(12):
        r = float(rng.uniform(0.5, 5.0))
        p = float(rng.uniform(0.5, 5.0))
        assert consistency(r, p, scale) == pytest.approx(abs(r - p) / 4.5, abs=tol)

    # NF4 fuzzification: triangular memberships, partition of unity
    grid = [0.5 + 0.5 * k for k in range(10)]
    for r in grid + [float(rng.uniform(0.5, 5.0)) for _ in range(4)]:
        t = (r - 0.5) / 4.5
        low = max(0.0, 1.0 - 2.0 * t)
        high = max(0.0, 2.0 * t - 1.0)
        got = nf4_fuzzify(r, scale)
        assert got.low == pytest.approx(low, abs=tol)
        assert got.high == pytest.approx(high, abs=tol)
        assert got.medium == pytest.approx(1.0 - low - high, abs=tol)

    # NF4 Manhattan distance and dissimilarity on random profiles
    def _profile():
        return nf4_fuzzify(float(rng.uniform(0.5, 5.0)), scale)

    for _ in range(12):
        a, b = _profile(), _profile()
        want = abs(a.low - b.low) + abs(a.medium - b.medium) + abs(a.high - b.high)
        assert manhattan(a, b) == pytest.approx(want, abs=tol)
        assert dissim(a, b) == pytest.approx(max(0.0, want - 1.0), abs=tol)

    # NF4 noise degree: min t-norm of the two dissimilarities
    for _ in range(12):
        up, ip, rp = _profile(), _profile(), _profile()
        nd = min(dissim(up, rp), dissim(ip, rp))
        d_u = max(0.0, manhattan(up, rp) - 1.0)
        d_i = max(0.0, manhattan(ip, rp) - 1.0)
        assert nd == pytest.approx(min(d_u, d_i), abs=tol)

    # NF2 RND: share of genre means deviating by >= theta, relative
    assert nf2_rnd(4.2, {"a": 4.0, "b": 2.0}, 0.075) == pytest.approx(0.5, abs=tol)
    for _ in range(12):
        means = [float(v) for v in rng.uniform(0.5, 5.0, int(rng.integers(1, 7)))]
        value = float(rng.uniform(0.5, 5.0))
        theta = float(rng.choice([0.05, 0.075, 0.2]))
        assert nf2_rnd(value, means, theta) == pytest.approx(
            _brute_rnd(value, means, theta), abs=tol
        )

    # ranking metrics against the loop oracle
    ndcg, *_ = _metrics([10, 11, 7, 12, 13], {7}, K=5)
    assert ndcg == pytest.approx(0.5, abs=tol)
    for _ in range(12):
        items = list(rng.choice(60, size=int(rng.integers(1, 12)), replace=False))
        relevant = {int(v) for v in rng.choice(60, size=int(rng.integers(0, 9)), replace=False)}
        K = int(rng.integers(1, 10))
        got = _metrics(items, relevant, K)
        want = ranking_metrics_loop(items, relevant, K)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=tol)

    # serendipity against the loop oracle
    for _ in range(12):
        vectors = {item: (rng.random(3) < 0.5).astype(float) for item in range(15)}
        history = {int(v) for v in rng.choice(15, size=int(rng.integers(1, 5)), replace=False)}
        recs = [int(v) for v in rng.choice(15, size=int(rng.integers(0, 6)), replace=False)]
        relevant = {int(v) for v in rng.choice(15, size=int(rng.integers(0, 8)), replace=False)}
        got = _one(recs, history, relevant, vectors)
        assert got == pytest.approx(
            serendipity_loop(recs, history, relevant, _genre_map(vectors)), abs=tol
        )

    # plane classification: strict a*x + b*y > 0
    assert plane_positive(0.0, 0.01, (0.07, 0.17))
    assert not plane_positive(0.1, -0.05, (0.07, 0.17))
    for _ in range(12):
        x, y = (float(v) for v in rng.normal(0, 0.3, 2))
        a, b = (float(v) for v in rng.uniform(0.01, 1.0, 2))
        assert plane_positive(x, y, (a, b)) == (a * x + b * y > 0.0)

    # quadrant mapping: pure function of the sign pattern
    sign_cases = {
        (1, 1): Quadrant.I, (0, 1): Quadrant.I, (1, 0): Quadrant.I,
        (0, 0): Quadrant.ORIGIN, (-1, 1): Quadrant.II, (-1, 0): Quadrant.II,
        (-1, -1): Quadrant.III, (0, -1): Quadrant.IV, (1, -1): Quadrant.IV,
    }
    for (sx, sy), want in sign_cases.items():
        assert QUADRANTS[quadrant(float(sx) * 0.3, float(sy) * 0.2)] is want
    for _ in range(12):
        x, y = (float(v) for v in rng.normal(0, 1, 2))
        got = QUADRANTS[quadrant(x, y)]
        if x >= 0 and y >= 0:
            assert got in (Quadrant.I, Quadrant.ORIGIN)
        elif x < 0 and y >= 0:
            assert got is Quadrant.II
        elif x < 0 and y < 0:
            assert got is Quadrant.III
        else:
            assert got is Quadrant.IV

    # opt-out ratio: strict noisy-share threshold on the last active day
    for trial in range(12):
        n = int(rng.integers(1, 13))
        k = int(rng.integers(0, n + 1))
        threshold = float(rng.choice([0.3, 0.5, 0.7]))
        rows = [(1, j + 1, 3.0, 86400 + j) for j in range(n)]
        labels = {(1, j + 1): Verdict.NOISY if j < k else Verdict.CLEAN for j in range(n)}
        table = make_table(rows)
        hits = detect_optout(table, noisy_flags(table, labels), threshold=threshold)
        assert bool(hits) == (k / n > threshold)
        if hits:
            assert hits.ratio[0] == pytest.approx(k / n, abs=tol)


# -- criterion 3: synthetic-noise recovery over 5 seeds --------------------


def test_criterion_3_consensus_precision():
    t0 = time.monotonic()
    outcomes = []
    for seed in range(5):
        table, genres = planted_tables(users=500, items=800, seed=seed)
        train, detect = split_train_test(table, SplitSpec(0.8, derive_seed(seed, 101)))
        noisy_detect, mask = inject_noise(detect, 0.10, NoiseKind.UNIFORM_REPLACE, seed=seed)
        board = run_board(train, noisy_detect, genres, BoardConfig())
        positives = set(mask.keys)

        def precision(flagged: set) -> float:
            return len(flagged & positives) / len(flagged) if flagged else 0.0

        per_detector = []
        keys = board.votes.keys()
        for d in range(len(DETECTOR_IDS)):
            flagged = {key for key, f in zip(keys, board.votes.noisy[:, d].tolist()) if f}
            per_detector.append(precision(flagged))
        consensus_flagged = set(board.votes.keys(board.votes.where(Consensus.NOISY)))
        cons = precision(consensus_flagged)
        outcomes.append((cons, sum(per_detector) / len(per_detector)))

    passes = sum(1 for cons, mean_det in outcomes if cons >= mean_det)
    elapsed = time.monotonic() - t0
    assert passes >= 4, outcomes
    assert elapsed < 300.0
    worst = min(c - m for c, m in outcomes)
    ACCEPTANCE_INFO[3] = f"{passes}/5 seeds, min margin {worst:+.3f}, {elapsed:.0f}s"


# -- criterion 4: opt-out signature recall and false-positive rate ---------


def test_criterion_4_optout_recall_fpr():
    recalls, fprs = [], []
    for seed in range(5):
        table, _ = planted_tables(
            users=200, items=400, seed=300 + seed, ratings_per_user=(30, 60)
        )
        noisy, mask = inject_noise(table, 0.10, NoiseKind.OPTOUT_BURST, seed=seed)
        selected = {u for u, _ in mask.keys}
        assert len(selected) == 20
        labels = {
            (u, i): Verdict.NOISY if (u, i) in mask.keys else Verdict.CLEAN
            for u, i in zip(noisy.users.tolist(), noisy.items.tolist())
        }
        flagged = set(detect_optout(noisy, noisy_flags(noisy, labels)).users.tolist())
        n_users = len(noisy.user_ids())
        recall = len(flagged & selected) / len(selected)
        fpr = len(flagged - selected) / (n_users - len(selected))
        assert recall >= 0.9, (seed, recall)
        assert fpr <= 0.05, (seed, fpr)
        recalls.append(recall)
        fprs.append(fpr)
    ACCEPTANCE_INFO[4] = (
        f"recall min {min(recalls):.2f}, fpr max {max(fprs):.3f} across 5 seeds"
    )


# -- criterion 5: ensemble contracts ---------------------------------------


def _separable(n, seed, gap):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack(
        [
            rng.normal(-gap, 1.0, size=(half, 4)),
            rng.normal(gap, 1.0, size=(n - half, 4)),
        ]
    )
    y = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(n - half, dtype=np.int64)])
    perm = rng.permutation(n)
    return X[perm], y[perm]


def test_criterion_5_ensemble_contracts():
    # RF OOB error within 0.15 of held-out error
    X, y = _separable(400, seed=2, gap=0.9)
    rf = RandomForest(trees=60, max_depth=6, seed=5).fit(X[:300], y[:300])
    held = float(np.mean(rf.predict_with_proba(X[300:])[0] != y[300:]))
    assert rf.oob_error is not None
    assert abs(rf.oob_error - held) <= 0.15

    # RESSEL with no unlabeled data reproduces plain bagging exactly
    Xl, yl = _separable(120, seed=3, gap=1.5)
    probe, _ = _separable(50, seed=4, gap=1.5)
    ressel = train_ressel(Xl, yl, np.zeros((0, Xl.shape[1])), bags=8, seed=9)
    bagging = train_bagging(Xl, yl, bags=8, seed=9)
    for got, want in zip(ressel.predict_with_proba(probe), bagging.predict_with_proba(probe)):
        assert got.tobytes() == want.tobytes()

    # accepted self-training steps never raise a bag's OOB error
    Xl2, yl2 = _separable(80, seed=6, gap=0.8)
    Xu, _ = _separable(150, seed=7, gap=0.8)
    grown = train_ressel(Xl2, yl2, Xu, bags=6, add_per_round=10, seed=11, max_rounds=5)
    assert any(len(seq) > 0 for seq in grown.oob_sequences)
    for seq in grown.oob_sequences:
        assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))

    # EIF ranks a planted far outlier above the inlier median on every seed
    rng = np.random.default_rng(13)
    points = np.vstack([rng.normal(0, 1, size=(100, 2)), [[8.0, 8.0]]])
    for seed in range(5):
        forest = ExtendedIsolationForest(trees=50, sample_size=64, seed=seed).fit(points)
        scores = forest.score(points)
        assert scores[-1] > float(np.median(scores[:-1])), seed

    # GBT log-loss strictly decreases for 10 rounds on a separable fixture
    Xg, yg = _separable(200, seed=8, gap=1.2)
    gbt = train_gbt(Xg, yg, rounds=10, depth=2, lr=0.3)
    assert len(gbt.loss_curve) == 11
    assert all(b < a for a, b in zip(gbt.loss_curve, gbt.loss_curve[1:]))


# -- criterion 6: evaluation invariants -------------------------------------


def test_criterion_6_evaluation_invariants():
    # k-means inertia monotone non-increasing
    rng = np.random.default_rng(17)
    vectors = {u: rng.normal(0, 1, 3) for u in range(40)}
    curve = cluster_users(np.array([vectors[u] for u in range(40)]), k=6, seed=2).inertia_curve
    assert len(curve) >= 1
    assert all(b <= a + 1e-9 for a, b in zip(curve, curve[1:]))

    # plane classification invariant under positive rescaling
    rng = np.random.default_rng(18)
    a, b = 0.07, 0.17
    checked = 0
    for _ in range(60):
        x, y = (float(v) for v in rng.normal(0, 0.2, 2))
        if abs(a * x + b * y) < 1e-12:
            continue
        base = plane_positive(x, y, (a, b))
        for c in (0.25, 0.5, 2.0, 8.0, 3.7, 0.013):
            assert plane_positive(x, y, (c * a, c * b)) == base
        checked += 1
    assert checked >= 50

    # all ranking metrics bounded in [0, 1]
    rng = np.random.default_rng(19)
    for _ in range(20):
        items = list(rng.choice(50, size=int(rng.integers(1, 10)), replace=False))
        relevant = {int(v) for v in rng.choice(50, size=int(rng.integers(0, 8)), replace=False)}
        metrics = _metrics(items, relevant, int(rng.integers(1, 10)))
        for value in metrics:
            assert 0.0 <= value <= 1.0 + 1e-12

    # serendipity zero when recommendations duplicate history genres,
    # and zero when nothing recommended is relevant
    vectors = {1: [1.0, 0.0], 2: [1.0, 0.0], 3: [0.0, 1.0]}
    assert _one([2], {1}, {2}, vectors) == pytest.approx(0.0, abs=1e-12)
    assert _one([3, 2], {1}, set(), vectors) == pytest.approx(0.0, abs=1e-12)


# -- criterion 7: determinism at MovieLens scale ----------------------------


@pytest.fixture(scope="module")
def movielens_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("ml-sized")
    table, genres = movielens_sized_tables(seed=1)
    data = base / "data"
    write_dataset_csvs(table, genres, data)
    cfg = config_from_dict(
        {
            "ratings_path": str(data / "ratings.csv"),
            "movies_path": str(data / "movies.csv"),
            "out_dir": str(base / "out"),
            "run_id": "first",
            "seed": 5,
        }
    )
    t0 = time.monotonic()
    result = run_framework(cfg)
    elapsed = time.monotonic() - t0
    return cfg, result, elapsed


def test_criterion_7_determinism_at_scale(movielens_run):
    cfg, result, elapsed_first = movielens_run
    assert result.report_dict["config"]["clusters_k"] == 20
    assert result.report_dict["config"]["top_k"] == 10
    cfg2 = dataclasses.replace(cfg, run_id="second")
    t0 = time.monotonic()
    result2 = run_framework(cfg2)
    elapsed = elapsed_first + (time.monotonic() - t0)
    assert reports_equal(result.paths.report, result2.paths.report)
    assert elapsed < 600.0
    n = result.report_dict["counts"]["ratings_after_filter"]
    ACCEPTANCE_INFO[7] = f"two runs in {elapsed:.0f}s on a {n}-rating generated stand-in"


# -- criterion 8: directional sanity (informational) ------------------------


def test_criterion_8_detector_flag_ordering(movielens_run):
    _cfg, result, _elapsed = movielens_run
    counts = result.report_dict["board"]["per_detector_noisy"]
    ranked = sorted(counts, key=counts.get, reverse=True)
    summary = ", ".join(f"{d}={counts[d]}" for d in ranked)
    heavy = set(ranked[:2])
    note = "NF2/NF3 flag most" if heavy == {"NF2", "NF3"} else "ordering differs"
    ACCEPTANCE_INFO[8] = f"{summary}; {note}"
    # informational by contract: counts are recorded, not asserted
