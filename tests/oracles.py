"""Per-rating loop versions of the board detectors and the feature builder.

These are the reference implementations the array code in `noisegate.board`
and `noisegate.ensemble.features` is checked against, bit for bit: one
Python iteration per rating, neighbor or genre, with row lookups done by a
plain scan of the table's columns.
"""

from __future__ import annotations

import math

import numpy as np

from noisegate.board import BoardResult, consensus
from noisegate.board.nf1 import (
    HOMOLOGOUS,
    ItemClass,
    Nf1Result,
    RatingClass,
    UserClass,
    classify_rating,
)
from noisegate.board.nf2 import Nf2Group, Nf2Result, Quality, Quantity, nf2_rnd
from noisegate.board.nf3 import Nf3Result, consistency
from noisegate.board.nf4 import FuzzyProfile, Nf4Result, dissim, manhattan, nf4_fuzzify
from noisegate.board.verdict import DETECTOR_IDS, Verdict, VoteSet
from noisegate.dataset import RatingsTable
from noisegate.recsys import KnnConfig, SimilarityMatrix, pearson_similarity


def _rows(column: np.ndarray, key: int) -> np.ndarray:
    return np.flatnonzero(column == key)


def _profile(table: RatingsTable, user: int) -> dict[int, float]:
    return {int(table.items[k]): float(table.values[k]) for k in _rows(table.users, user)}


def _has(table: RatingsTable, user: int, item: int) -> bool:
    return bool(np.any((table.users == user) & (table.items == item)))


# -- NF1 -----------------------------------------------------------------


def _set_class(values, cuts, majority) -> int:
    w = a = s = 0
    for v in values:
        cls = classify_rating(float(v), cuts)
        if cls is RatingClass.WEAK:
            w += 1
        elif cls is RatingClass.AVERAGE:
            a += 1
        else:
            s += 1
    n = w + a + s
    for code, count in enumerate((w, a, s)):
        if count > majority * n:
            return code
    return 3


_USER_CLASSES = (UserClass.CRITICAL, UserClass.AVERAGE, UserClass.BENEVOLENT, UserClass.VARIABLE)
_ITEM_CLASSES = (
    ItemClass.WEAKLY_PREFERRED,
    ItemClass.AVERAGELY_PREFERRED,
    ItemClass.STRONGLY_PREFERRED,
    ItemClass.VARIABLY_PREFERRED,
)


def _profile_values(test, ctx, column: str, key: int) -> np.ndarray:
    rows = _rows(getattr(ctx, column), key)
    if len(rows):
        return ctx.values[rows]
    return test.values[_rows(getattr(test, column), key)]


def nf1_detect_loop(test, cuts=(2.5, 4.0), majority=0.5, context=None) -> Nf1Result:
    ctx = context if context is not None else test
    user_classes = {
        u: _USER_CLASSES[_set_class(_profile_values(test, ctx, "users", u), cuts, majority)]
        for u in {int(u) for u in test.users}
    }
    item_classes = {
        i: _ITEM_CLASSES[_set_class(_profile_values(test, ctx, "items", i), cuts, majority)]
        for i in {int(i) for i in test.items}
    }
    verdicts = {}
    for r in test:
        expected = HOMOLOGOUS.get((user_classes[r.user_id], item_classes[r.item_id]))
        if expected is not None and classify_rating(r.value, cuts) is not expected:
            verdicts[(r.user_id, r.item_id)] = Verdict.NOISY
        else:
            verdicts[(r.user_id, r.item_id)] = Verdict.CLEAN
    return Nf1Result(verdicts, user_classes, item_classes)


# -- NF2 -----------------------------------------------------------------


def _genre_matrix(table: RatingsTable, rows: np.ndarray, genres) -> np.ndarray:
    if len(rows) == 0:
        return np.zeros((0, genres.n_genres))
    return np.array([genres.vector(int(table.items[k])) for k in rows])


def user_coherence_loop(user: int, table: RatingsTable) -> tuple[float, bool]:
    rows = _rows(table.users, user)
    G = _genre_matrix(table, rows, table.genres)
    values = table.values[rows]
    counts = G.sum(axis=0)
    sums = values @ G
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.where(counts > 0, counts, 1), 0.0)
    devs = []
    for k in range(len(rows)):
        gidx = np.flatnonzero(G[k])
        if len(gidx) == 0:
            continue
        devs.append(float(np.mean(np.abs(values[k] - means[gidx]))) / table.scale.span)
    if not devs:
        return 1.0, False
    return 1.0 - float(np.mean(devs)), True


def group_users_loop(table: RatingsTable, coherence_cut: float = 0.8) -> dict[int, Nf2Group]:
    users = sorted({int(u) for u in table.users})
    counts = np.array([len(_rows(table.users, u)) for u in users], dtype=np.float64)
    q1 = float(np.quantile(counts, 1 / 3))
    q2 = float(np.quantile(counts, 2 / 3))
    groups = {}
    for u, n in zip(users, counts):
        if n > q2:
            quantity = Quantity.HEAVY
        elif n <= q1:
            quantity = Quantity.LIGHT
        else:
            quantity = Quantity.MEDIUM
        coherence, had_genres = user_coherence_loop(u, table)
        if not had_genres:
            quality = Quality.EASY
        else:
            quality = Quality.EASY if coherence >= coherence_cut else Quality.DIFFICULT
        groups[u] = Nf2Group(quantity, quality)
    return groups


def nf2_detect_loop(
    test, theta_heavy_medium=0.075, theta_light=0.05, rnd_cut=0.5, context=None,
    coherence_cut=0.8,
) -> Nf2Result:
    ctx = context if context is not None else test
    groups = group_users_loop(ctx, coherence_cut)
    genres = ctx.genres
    stats = {}
    verdicts = {}
    rnd_values = {}
    for r in test:
        key = (r.user_id, r.item_id)
        group = groups.get(r.user_id)
        if group is None:
            group = group_users_loop(test, coherence_cut)[r.user_id]
            groups[r.user_id] = group
        if r.user_id not in stats:
            rows = _rows(ctx.users, r.user_id)
            G = _genre_matrix(ctx, rows, genres)
            stats[r.user_id] = (ctx.values[rows] @ G, G.sum(axis=0))
        gsum, gcount = stats[r.user_id]
        gidx = np.flatnonzero(genres.vector(r.item_id))
        own = _has(ctx, r.user_id, r.item_id)
        means = []
        for g in gidx:
            cnt = gcount[g] - (1 if own else 0)
            if cnt >= 1:
                means.append(float((gsum[g] - (r.value if own else 0.0)) / cnt))
        theta = theta_light if group.quantity is Quantity.LIGHT else theta_heavy_medium
        rnd = nf2_rnd(r.value, means, theta)
        rnd_values[key] = rnd
        if group.quantity is Quantity.MEDIUM and group.quality is Quality.EASY:
            verdicts[key] = Verdict.CLEAN
        else:
            verdicts[key] = Verdict.NOISY if rnd > rnd_cut else Verdict.CLEAN
    return Nf2Result(verdicts, groups, rnd_values)


# -- NF3 -----------------------------------------------------------------


def knn_predict_loop(
    train: RatingsTable, user: int, item: int, cfg: KnnConfig, sims: SimilarityMatrix | None
) -> float | None:
    """Without sims, each rater is weighted by pearson_similarity over profiles."""
    rater_rows = _rows(train.items, item)
    if len(rater_rows) == 0:
        return None
    mean = {
        u: float(train.values[_rows(train.users, u)].mean()) for u in {int(u) for u in train.users}
    }
    candidates = []
    for k in rater_rows:
        v = int(train.users[k])
        if v == user:
            continue
        if sims is not None:
            w = sims.between(user, v)
        else:
            w = pearson_similarity(_profile(train, user), _profile(train, v), cfg)
        if w != 0.0:
            candidates.append((w, v, float(train.values[k])))
    if not candidates:
        return None
    candidates.sort(key=lambda c: (-abs(c[0]), c[1]))
    chosen = candidates[: cfg.k]
    num = sum(w * (r - mean[v]) for w, v, r in chosen)
    den = sum(abs(w) for w, _, _ in chosen)
    return train.scale.clamp(mean[user] + num / den)


def nf3_detect_loop(train, test, cfg=KnnConfig(), th=0.05) -> Nf3Result:
    sims = SimilarityMatrix(train, cfg) if len(train) else None
    verdicts, cons, preds = {}, {}, {}
    unpredictable = 0
    for r in test:
        key = (r.user_id, r.item_id)
        if sims is None or len(_rows(train.users, r.user_id)) == 0:
            pred = None
        else:
            pred = knn_predict_loop(train, r.user_id, r.item_id, cfg, sims)
        preds[key] = pred
        if pred is None:
            unpredictable += 1
            cons[key] = None
            verdicts[key] = Verdict.CLEAN
        else:
            c = consistency(r.value, pred, test.scale)
            cons[key] = c
            verdicts[key] = Verdict.NOISY if c > th else Verdict.CLEAN
    return Nf3Result(verdicts, cons, preds, unpredictable)


# -- NF4 -----------------------------------------------------------------


def _mean_profile(values: np.ndarray, scale) -> FuzzyProfile:
    t = (values - scale.r_min) / scale.span
    low = np.maximum(0.0, 1.0 - 2.0 * t)
    high = np.maximum(0.0, 2.0 * t - 1.0)
    medium = 1.0 - low - high
    return FuzzyProfile(float(low.mean()), float(medium.mean()), float(high.mean()))


def nf4_detect_loop(test, delta1=1.0, delta2=0.25, context=None) -> Nf4Result:
    ctx = context if context is not None else test
    scale = test.scale
    user_profiles = {
        u: _mean_profile(_profile_values(test, ctx, "users", u), scale)
        for u in {int(x) for x in test.users}
    }
    item_profiles = {
        i: _mean_profile(_profile_values(test, ctx, "items", i), scale)
        for i in {int(x) for x in test.items}
    }
    verdicts, degrees = {}, {}
    prefiltered = 0
    for r in test:
        key = (r.user_id, r.item_id)
        up = user_profiles[r.user_id]
        ip = item_profiles[r.item_id]
        if manhattan(up, ip) >= delta1:
            prefiltered += 1
            degrees[key] = 0.0
            verdicts[key] = Verdict.CLEAN
            continue
        rp = nf4_fuzzify(r.value, scale)
        degree = min(dissim(up, rp), dissim(ip, rp))
        degrees[key] = degree
        verdicts[key] = Verdict.NOISY if degree > delta2 else Verdict.CLEAN
    return Nf4Result(verdicts, degrees, user_profiles, item_profiles, prefiltered)


# -- board and features ----------------------------------------------------


def votesets_loop(test: RatingsTable, results) -> list[VoteSet]:
    out = []
    for r in test:
        key = (r.user_id, r.item_id)
        votes = {d: res.verdicts[key] for d, res in zip(DETECTOR_IDS, results)}
        out.append(VoteSet(key, votes, consensus(votes)))
    return out


def venn_loop(votesets: list[VoteSet]) -> dict[str, int]:
    from itertools import combinations

    def label(detectors):
        return "&".join(detectors) if detectors else "none"

    counts = {}
    for size in range(len(DETECTOR_IDS) + 1):
        for combo in combinations(DETECTOR_IDS, size):
            counts[label(combo)] = 0
    for vs in votesets:
        counts[label(tuple(d for d in DETECTOR_IDS if vs.votes[d] is Verdict.NOISY))] += 1
    return counts


_USER_CODE = {c: float(k) for k, c in enumerate(_USER_CLASSES)}
_ITEM_CODE = {c: float(k) for k, c in enumerate(_ITEM_CLASSES)}


def feature_matrix_loop(
    test: RatingsTable, context: RatingsTable, board: BoardResult
) -> tuple[list[tuple[int, int]], np.ndarray]:
    votes_by_key = {vs.key: vs.votes for vs in board.votesets}
    scale = context.scale
    keys, rows = [], []
    for r in test:
        key = (r.user_id, r.item_id)
        u_vals = context.values[_rows(context.users, r.user_id)]
        i_vals = context.values[_rows(context.items, r.item_id)]
        u_mean, u_std = float(u_vals.mean()), float(u_vals.std())
        i_mean, i_std = float(i_vals.mean()), float(i_vals.std())
        c = board.nf3.consistency.get(key)
        keys.append(key)
        rows.append(np.array(
            [
                (r.value - scale.r_min) / scale.span,
                u_mean, u_std, i_mean, i_std,
                abs(r.value - u_mean), abs(r.value - i_mean),
                math.log(len(u_vals)), math.log(len(i_vals)),
                _USER_CODE[board.nf1.user_classes[r.user_id]],
                _ITEM_CODE[board.nf1.item_classes[r.item_id]],
                board.nf4.noise_degree[key],
                0.0 if c is None else c,
                1.0 if c is None else 0.0,
                board.nf2.rnd[key],
            ]
            + [1.0 if votes_by_key[key][d] is Verdict.NOISY else 0.0 for d in DETECTOR_IDS]
        ))
    return keys, np.vstack(rows)
