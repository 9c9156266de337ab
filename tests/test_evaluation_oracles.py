"""The array evaluation against the per-user loop oracles, bit for bit.

Top-K lists, the four ranking metrics, serendipity, the delta points, the
global means, percent positive and the critical groups are all compared
with float.hex, so a change of summation order or of a tie shows up even
where it moves a value by one unit in the last place.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate.dataset import Scale
from noisegate.evaluation import (
    ACCURACY_METRICS,
    BASIS_RATINGS,
    BASIS_USERS,
    DEFAULT_PLANE,
    cluster_users,
    critical_groups,
    delta_points,
    global_means,
)
from noisegate.evaluation.serendipity import FORMULA_COMPLEMENT, FORMULA_PAPER_LITERAL
from noisegate.pipeline import _evaluate_arm, _rating_counts, _relevant
from noisegate.recsys import MfModel, recommend_topk

from . import oracles
from .conftest import genre_map, make_table

GRID = [0.5 * k for k in range(1, 11)]
# Items 90-92 are rated in the held-out fold only, so no model has seen them.
UNSEEN = [90, 91, 92]


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def _model(rng, f, table, crowded) -> MfModel:
    """A model over the table's users and items whose scores often clip to
    either end of the scale and often tie.  A crowded model clips most
    items' scores to r_max for every user, so more than K unrated items
    can tie at the K-th score."""
    users, items = table.user_ids(), table.item_ids()
    P = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(len(users), f))
    Q = rng.choice([-0.5, 0.0, 0.25, 3.0], size=(len(items), f))
    bu = rng.choice([-1.0, 0.0, 2.0], size=len(users))
    bi = rng.choice([-10.0, -1.0, 0.0, 0.3, 1.0, 10.0], size=len(items))
    if crowded:
        bi[rng.random(len(items)) < 0.8] = 20.0
    return MfModel(users, items, P, Q, bu, bi, rng.choice([2.75, 3.0]), Scale())


@st.composite
def _worlds(draw):
    """Hypothesis picks the sizes, shares and settings; a generator seeded by
    it fills in the tables, genre vectors and factors."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    items = np.sort(rng.choice(61, draw(st.integers(1, 24)), replace=False)).tolist()
    users = np.sort(rng.choice(41, draw(st.integers(1, 12)), replace=False)).tolist()
    # from one rated item to nearly all, so that long histories and long
    # lists of unrated items both occur
    rated_share = draw(st.sampled_from([0.1, 0.5, 0.9]))
    held_share = draw(st.sampled_from([0.2, 0.6]))
    corpus_rows, cleaned_rows, eval_rows = [], [], []
    for u in users:
        rated = [i for i in items if rng.random() < rated_share] or items[:1]
        rows = [(u, i, float(rng.choice(GRID)), 0) for i in rated]
        corpus_rows += rows
        # cleaning keeps at least one rating of every user
        cleaned_rows += [rows[0], *(r for r in rows[1:] if rng.random() < 0.5)]
        held = [i for i in items + UNSEEN if rng.random() < held_share]
        eval_rows += [(u, i, float(rng.choice(GRID)), 0) for i in held]
    corpus, cleaned, eval_t = make_table(corpus_rows), make_table(cleaned_rows), make_table(eval_rows)
    # narrow or sparse vectors leave many items, and whole histories, without
    # a genre; some items have no genre row at all
    width = draw(st.integers(1, 6))
    ones = draw(st.sampled_from([0.2, 0.5, 0.8]))
    vectors = {
        i: (rng.random(width) < ones).astype(float)
        for i in items + UNSEEN if rng.random() < 0.9
    }
    f = draw(st.integers(1, 3))
    crowded = draw(st.integers(0, 3)) == 0
    return SimpleNamespace(
        corpus=corpus,
        cleaned=cleaned,
        eval_t=eval_t,
        universe=np.array(users, dtype=np.int64),
        genres=genre_map(vectors, tuple(f"g{k}" for k in range(width))),
        before=_model(rng, f, corpus, crowded),
        after=_model(rng, f, cleaned, crowded),
        K=draw(st.integers(1, 24)),
        threshold=draw(st.sampled_from([0.5, 3.0, 4.5, 5.0])),
        formula=draw(st.sampled_from([FORMULA_COMPLEMENT, FORMULA_PAPER_LITERAL])),
        basis=draw(st.sampled_from([BASIS_USERS, BASIS_RATINGS])),
        clusters_k=draw(st.integers(1, 4)),
    )


@settings(max_examples=200, deadline=None)
@given(_worlds())
def test_array_evaluation_equals_per_user_oracles(w):
    cfg = SimpleNamespace(
        top_k=w.K, relevance_threshold=w.threshold, serendipity_formula=w.formula
    )
    users = w.universe.tolist()
    arms, loops = [], []
    for model, table in ((w.before, w.corpus), (w.after, w.cleaned)):
        topk = recommend_topk(model, table, w.universe, w.K)
        for user, row in zip(users, topk.tolist()):
            want = oracles.recommend_topk_loop(model, table, user, w.K)
            assert row == want + [-1] * (w.K - len(want))
        relevant = _relevant(w.eval_t, cfg)
        n_relevant = _rating_counts(relevant, w.universe)
        arm = _evaluate_arm(model, table, relevant, n_relevant, w.universe, w.genres, cfg)
        loop = oracles.evaluate_arm_loop(
            model, table, w.eval_t, users, w.genres, w.K, w.threshold, w.formula
        )
        for field in oracles.ARM_FIELDS:
            assert _hexes(getattr(arm, field)) == _hexes(loop[u][field] for u in users), field
        arms.append(arm)
        loops.append(loop)

    # clustering runs on the before arm's factors, as the pipeline does; the
    # factors repeat often, so some clusters end up empty
    X = w.before.P[np.searchsorted(w.before.users, w.universe)]
    labels = cluster_users(X, k=w.clusters_k, seed=3).labels
    clusters = dict(zip(users, labels.tolist()))
    weights = _rating_counts(w.eval_t, w.universe)
    for metric in ACCURACY_METRICS:
        rep = delta_points(
            w.universe, labels, arms[0], arms[1], metric, DEFAULT_PLANE, w.basis, weights
        )
        points, pct, mean_before, mean_after = oracles.delta_points_loop(
            loops[0], loops[1], clusters, metric, DEFAULT_PLANE, w.basis,
            dict(zip(users, weights.tolist())),
        )
        assert [p._replace(x=p.x.hex(), y=p.y.hex()) for p in oracles.delta_records(rep)] == [
            p._replace(x=p.x.hex(), y=p.y.hex()) for p in points
        ]
        assert rep.percent_positive.hex() == pct.hex()
        assert {m: v.hex() for m, v in global_means(arms[0]).items()} == {
            m: v.hex() for m, v in mean_before.items()
        }
        assert {m: v.hex() for m, v in global_means(arms[1]).items()} == {
            m: v.hex() for m, v in mean_after.items()
        }
    for arm, loop in zip(arms, loops):
        got = critical_groups(labels, arm.ndcg)
        assert got.hex() == oracles.critical_groups_loop(loop, clusters).hex()


def test_critical_groups_skip_an_empty_cluster():
    # identical vectors put every user in cluster 0, so clusters 1 and 2 are empty
    X = np.ones((4, 2))
    labels = cluster_users(X, k=3, seed=0).labels
    assert labels.tolist() == [0, 0, 0, 0]
    ndcg = np.array([0.1, 0.2, 0.4, 0.8])
    loop = {u: {"ndcg": v} for u, v in enumerate(ndcg.tolist())}
    want = oracles.critical_groups_loop(loop, dict(enumerate(labels.tolist())))
    assert critical_groups(labels, ndcg) == want == 0.0
    # users in clusters 0 and 2 only: the mean of means is over two clusters
    labels = np.array([0, 2, 2, 0])
    assert critical_groups(labels, ndcg) == pytest.approx(50.0)
