"""Per-rating loop versions of the board detectors and the feature builder,
per-row / per-node sort versions of the Layer-2 kNN and trees, and the
per-row csv.writer renderings of the artifact writers.

These are the reference implementations the array code in `noisegate.board`
and `noisegate.ensemble` is checked against, bit for bit: one Python
iteration per rating, neighbor or genre, with row lookups done by a plain
scan of the table's columns.  Per-rating outputs come back as arrays in
test row order, as the array code gives them; an unpredictable NF3
rating's None becomes NaN there.  The kNN oracle argsorts every query's
distances; the tree oracles argsort every candidate feature at every node,
the boosting oracle fits every round's tree from scratch, and RESSEL's
batch oracle predicts the whole pool in one call before it chooses.
The artifact oracles format one cell at a time and hand the rows to
csv.writer, or read a file's rows through csv.reader and parse one cell
at a time; dedupe_rows collapses duplicate rating keys through a dict.
The opt-out signature oracle looks each rating's label up by its
(user, item) key and formats every rating's UTC day.  The evaluation
oracles score, rank and measure one user at a time, pair the two arms
through per-user dicts and sum every mean left to right in a loop.  The
signature and delta oracles give one record per user, a SignatureHit or
a DeltaPoint; hit_records and delta_records turn the array results into
the same records for comparison.
The lookups only tests need (a table's rows as Rating records, its keys
and values by key, an item's genre vector or genre names by a scan of the
map's ids), the clip of a value to a rating scale, and the pairwise
Pearson similarity and the similarity matrix built from whole-array
expressions, which the matrix is checked against, live here too, as does
the one-pair MF prediction.
"""

from __future__ import annotations

import csv
import io
import math
from datetime import date, timedelta
from typing import NamedTuple

import numpy as np

from noisegate.board import CONSENSUS, VOTES_HEADER, BoardResult, Consensus, Votes
from noisegate.board.nf1 import (
    HOMOLOGOUS,
    ItemClass,
    Nf1Result,
    RatingClass,
    UserClass,
    classify_rating,
)
from noisegate.board.nf2 import Nf2Result, Quantity, nf2_rnd
from noisegate.board.nf3 import Nf3Result, consistency
from noisegate.board.nf4 import FuzzyProfile, Nf4Result, dissim, manhattan, nf4_fuzzify
from noisegate.board.verdict import DETECTOR_IDS, Verdict
from noisegate.dataset import RatingsTable
from noisegate.ensemble import CLASSIFICATION_HEADER
from noisegate.ensemble.boosting import GbtModel, _log_loss, _sigmoid
from noisegate.ensemble.features import FEATURES_HEADER
from noisegate.ensemble.learners import KnnClassifier
from noisegate.ensemble.ressel import ResselModel, base_roster
from noisegate.ensemble.trees import _MIN_GAIN, DecisionTree, RegressionTree, _gini, _Node
from noisegate.evaluation.deltas import (
    BASIS_USERS,
    QUADRANTS,
    DeltaReport,
    Quadrant,
    plane_positive,
)
from noisegate.evaluation.serendipity import FORMULA_COMPLEMENT, FORMULA_PAPER_LITERAL
from noisegate.recsys import _VAR_EPS, KnnConfig, MfModel, SimilarityMatrix
from noisegate.seeding import derive_seed
from noisegate.signature import DENOMINATOR_LAST_DAY, OPTOUT_SIGNATURE_ID, Hits, utc_day


def _rows(column: np.ndarray, key: int) -> np.ndarray:
    return np.flatnonzero(column == key)


def _profile(table: RatingsTable, user: int) -> dict[int, float]:
    return {int(table.items[k]): float(table.values[k]) for k in _rows(table.users, user)}


def _has(table: RatingsTable, user: int, item: int) -> bool:
    return bool(np.any((table.users == user) & (table.items == item)))


class Rating(NamedTuple):
    user_id: int
    item_id: int
    value: float
    timestamp: int


def ratings(table: RatingsTable) -> list[Rating]:
    """Every row as a Rating of Python numbers, in row order."""
    columns = (table.users, table.items, table.values, table.timestamps)
    return [Rating(*row) for row in zip(*(c.tolist() for c in columns))]


def keys(table: RatingsTable) -> list[tuple[int, int]]:
    """(user_id, item_id) of every row, in row order."""
    return list(zip(table.users.tolist(), table.items.tolist()))


def value_of(table: RatingsTable, user: int, item: int) -> float:
    rows = np.flatnonzero((table.users == user) & (table.items == item))
    if len(rows) == 0:
        raise KeyError((user, item))
    return float(table.values[rows[0]])


def clamp(scale, value: float) -> float:
    """value clipped to the scale's closed interval."""
    return min(scale.r_max, max(scale.r_min, value))


def genre_vector(genres, item: int) -> np.ndarray:
    """The item's genre vector by a scan of the map's ids; zeros when absent."""
    for k, known in enumerate(genres.item_ids.tolist()):
        if known == item:
            return genres.matrix[k]
    return np.zeros(len(genres.vocabulary))


def genres_of(genres, item: int) -> tuple[str, ...]:
    vec = genre_vector(genres, item)
    return tuple(g for g, bit in zip(genres.vocabulary, vec) if bit)


def pearson_similarity(
    a_ratings: dict[int, float], b_ratings: dict[int, float], cfg: KnnConfig = KnnConfig()
) -> float:
    """Significance-weighted Pearson correlation over co-rated items.

    The raw correlation is multiplied by min(n, significance_cap) / significance_cap
    so that similarities backed by few co-rated items carry less weight.
    Degenerate cases (overlap below min_overlap, zero variance) return 0.
    """
    common = a_ratings.keys() & b_ratings.keys()
    n = len(common)
    if n < cfg.min_overlap:
        return 0.0
    xs = np.array([a_ratings[i] for i in sorted(common)])
    ys = np.array([b_ratings[i] for i in sorted(common)])
    sx = xs.sum()
    sy = ys.sum()
    cov = float(xs @ ys) - sx * sy / n
    var_x = float(xs @ xs) - sx * sx / n
    var_y = float(ys @ ys) - sy * sy / n
    if var_x <= _VAR_EPS or var_y <= _VAR_EPS:
        return 0.0
    raw = cov / np.sqrt(var_x * var_y)
    raw = float(np.clip(raw, -1.0, 1.0))
    return raw * min(n, cfg.significance_cap) / cfg.significance_cap


def similarity_matrix_products(table: RatingsTable, cfg: KnnConfig = KnnConfig()) -> np.ndarray:
    """SimilarityMatrix(table, cfg).matrix as whole-array expressions, each
    product and quotient in a new array."""
    user_ids, item_ids = table.user_ids(), table.item_ids()
    rows_u = np.searchsorted(user_ids, table.users)
    rows_i = np.searchsorted(item_ids, table.items)
    R = np.zeros((len(user_ids), len(item_ids)))
    M = np.zeros_like(R)
    R[rows_u, rows_i] = table.values
    M[rows_u, rows_i] = 1.0
    n = M @ M.T
    sx = R @ M.T
    sxx = (R * R) @ M.T
    sxy = R @ R.T
    with np.errstate(invalid="ignore", divide="ignore"):
        cov = sxy - sx * sx.T / np.where(n > 0, n, 1)
        var_x = sxx - sx * sx / np.where(n > 0, n, 1)
        var_y = var_x.T
        denom = np.sqrt(var_x * var_y)
        raw = np.where(
            (var_x > _VAR_EPS) & (var_y > _VAR_EPS) & (n >= cfg.min_overlap),
            cov / np.where(denom > 0, denom, 1),
            0.0,
        )
    raw = np.clip(raw, -1.0, 1.0)
    return raw * np.minimum(n, cfg.significance_cap) / cfg.significance_cap


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


def _profile_values(ctx, column: str, key: int) -> np.ndarray:
    return ctx.values[_rows(getattr(ctx, column), key)]


def nf1_detect_loop(test, cuts=(2.5, 4.0), majority=0.5, context=None) -> Nf1Result:
    ctx = context if context is not None else test
    user_classes = {
        u: _USER_CLASSES[_set_class(_profile_values(ctx, "users", u), cuts, majority)]
        for u in {int(u) for u in test.users}
    }
    item_classes = {
        i: _ITEM_CLASSES[_set_class(_profile_values(ctx, "items", i), cuts, majority)]
        for i in {int(i) for i in test.items}
    }
    noisy, user_class, item_class = [], [], []
    for r in ratings(test):
        expected = HOMOLOGOUS.get((user_classes[r.user_id], item_classes[r.item_id]))
        if expected is not None and classify_rating(r.value, cuts) is not expected:
            noisy.append(True)
        else:
            noisy.append(False)
        user_class.append(_USER_CLASSES.index(user_classes[r.user_id]))
        item_class.append(_ITEM_CLASSES.index(item_classes[r.item_id]))
    return Nf1Result(
        np.array(noisy, dtype=bool),
        np.array(user_class, dtype=np.int64), np.array(item_class, dtype=np.int64),
    )


# -- NF2 -----------------------------------------------------------------


def _genre_matrix(table: RatingsTable, rows: np.ndarray, genres) -> np.ndarray:
    if len(rows) == 0:
        return np.zeros((0, len(genres.vocabulary)))
    return np.array([genre_vector(genres, int(table.items[k])) for k in rows])


def user_coherence_loop(user: int, table: RatingsTable, genres) -> tuple[float, bool]:
    rows = _rows(table.users, user)
    G = _genre_matrix(table, rows, genres)
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


def _groups_loop(
    table: RatingsTable, genres, coherence_cut: float
) -> dict[int, tuple[Quantity, bool]]:
    """Each user's (quantity, whether the quality is easy), one user at a time."""
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
        coherence, had_genres = user_coherence_loop(u, table, genres)
        if not had_genres:
            easy = True
        else:
            easy = coherence >= coherence_cut
        groups[u] = (quantity, easy)
    return groups


def group_users_loop(
    table: RatingsTable, genres, coherence_cut: float = 0.8
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ascending user ids, quantity codes, easy flags), as nf2._groups gives them first."""
    groups = _groups_loop(table, genres, coherence_cut)
    users = sorted(groups)
    return (
        np.array(users, dtype=np.int64),
        np.array([list(Quantity).index(groups[u][0]) for u in users], dtype=np.int64),
        np.array([groups[u][1] for u in users], dtype=bool),
    )


def nf2_detect_loop(
    test, genres, theta_heavy_medium=0.075, theta_light=0.05, rnd_cut=0.5, context=None,
    coherence_cut=0.8,
) -> Nf2Result:
    ctx = context if context is not None else test
    groups = _groups_loop(ctx, genres, coherence_cut)
    stats = {}
    noisy, quantities, easy_flags = [], [], []
    rnd_values = []
    for r in ratings(test):
        quantity, easy = groups[r.user_id]
        quantities.append(list(Quantity).index(quantity))
        easy_flags.append(easy)
        if r.user_id not in stats:
            rows = _rows(ctx.users, r.user_id)
            G = _genre_matrix(ctx, rows, genres)
            stats[r.user_id] = (ctx.values[rows] @ G, G.sum(axis=0))
        gsum, gcount = stats[r.user_id]
        gidx = np.flatnonzero(genre_vector(genres, r.item_id))
        own = _has(ctx, r.user_id, r.item_id)
        means = []
        for g in gidx:
            cnt = gcount[g] - (1 if own else 0)
            if cnt >= 1:
                means.append(float((gsum[g] - (r.value if own else 0.0)) / cnt))
        theta = theta_light if quantity is Quantity.LIGHT else theta_heavy_medium
        rnd = nf2_rnd(r.value, means, theta)
        rnd_values.append(rnd)
        if quantity is Quantity.MEDIUM and easy:
            noisy.append(False)
        else:
            noisy.append(rnd > rnd_cut)
    return Nf2Result(
        np.array(noisy, dtype=bool), np.array(quantities, dtype=np.int64),
        np.array(easy_flags, dtype=bool), np.array(rnd_values),
    )


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
    return clamp(train.scale, mean[user] + num / den)


def nf3_detect_loop(train, test, cfg=KnnConfig(), th=0.05) -> Nf3Result:
    sims = SimilarityMatrix(train, cfg) if len(train) else None
    noisy, cons, preds = [], [], []
    unpredictable = 0
    for r in ratings(test):
        if sims is None or len(_rows(train.users, r.user_id)) == 0:
            pred = None
        else:
            pred = knn_predict_loop(train, r.user_id, r.item_id, cfg, sims)
        if pred is None:
            unpredictable += 1
            preds.append(math.nan)
            cons.append(math.nan)
            noisy.append(False)
        else:
            c = consistency(r.value, pred, test.scale)
            preds.append(pred)
            cons.append(c)
            noisy.append(c > th)
    return Nf3Result(
        np.array(noisy, dtype=bool), np.array(cons, dtype=np.float64),
        np.array(preds, dtype=np.float64), unpredictable,
    )


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
        u: _mean_profile(_profile_values(ctx, "users", u), scale)
        for u in {int(x) for x in test.users}
    }
    item_profiles = {
        i: _mean_profile(_profile_values(ctx, "items", i), scale)
        for i in {int(x) for x in test.items}
    }
    noisy, degrees, ups, ips = [], [], [], []
    prefiltered = 0
    for r in ratings(test):
        up = user_profiles[r.user_id]
        ip = item_profiles[r.item_id]
        ups.append(up)
        ips.append(ip)
        if manhattan(up, ip) >= delta1:
            prefiltered += 1
            degrees.append(0.0)
            noisy.append(False)
            continue
        rp = nf4_fuzzify(r.value, scale)
        degree = min(dissim(up, rp), dissim(ip, rp))
        degrees.append(degree)
        noisy.append(degree > delta2)
    return Nf4Result(
        np.array(noisy, dtype=bool), np.array(degrees, dtype=np.float64),
        np.array(ups, dtype=np.float64).reshape(-1, 3),
        np.array(ips, dtype=np.float64).reshape(-1, 3), prefiltered,
    )


# -- board and features ----------------------------------------------------


def votes_loop(test: RatingsTable, results) -> Votes:
    """The board's votes from the four detector results, by a unanimity loop per rating."""
    noisy, codes = [], []
    for k in range(len(test)):
        flags = [bool(res.noisy[k]) for res in results]
        if all(flags):
            outcome = Consensus.NOISY
        elif not any(flags):
            outcome = Consensus.CLEAN
        else:
            outcome = Consensus.UNCERTAIN
        noisy.append(flags)
        codes.append(CONSENSUS.index(outcome))
    return Votes(
        test.users, test.items,
        np.array(noisy, dtype=bool).reshape(-1, len(DETECTOR_IDS)), np.array(codes, dtype=np.int8),
    )


def venn_loop(votes: Votes) -> dict[str, int]:
    from itertools import combinations

    def label(detectors):
        return "&".join(detectors) if detectors else "none"

    counts = {}
    for size in range(len(DETECTOR_IDS) + 1):
        for combo in combinations(DETECTOR_IDS, size):
            counts[label(combo)] = 0
    for flags in votes.noisy.tolist():
        counts[label(tuple(d for d, f in zip(DETECTOR_IDS, flags) if f))] += 1
    return counts


def feature_matrix_loop(
    test: RatingsTable, context: RatingsTable, board: BoardResult
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The feature rows, with the NF1 classes from nf1_detect_loop at its
    default cuts and majority over the context, and the other detector
    columns from the board."""
    scale = context.scale
    nf1 = nf1_detect_loop(test, context=context)
    keys, rows = [], []
    for k, r in enumerate(ratings(test)):
        key = (r.user_id, r.item_id)
        u_vals = context.values[_rows(context.users, r.user_id)]
        i_vals = context.values[_rows(context.items, r.item_id)]
        u_mean, u_std = float(u_vals.mean()), float(u_vals.std())
        i_mean, i_std = float(i_vals.mean()), float(i_vals.std())
        c = float(board.nf3.consistency[k])
        keys.append(key)
        rows.append(np.array(
            [
                (r.value - scale.r_min) / scale.span,
                u_mean, u_std, i_mean, i_std,
                abs(r.value - u_mean), abs(r.value - i_mean),
                math.log(len(u_vals)), math.log(len(i_vals)),
                float(nf1.user_class[k]),
                float(nf1.item_class[k]),
                board.nf4.noise_degree[k],
                0.0 if math.isnan(c) else c,
                1.0 if math.isnan(c) else 0.0,
                board.nf2.rnd[k],
            ]
            + [1.0 if board.votes.noisy[k, d] else 0.0 for d in range(len(DETECTOR_IDS))]
        ))
    return keys, np.vstack(rows)


# -- Layer 3: the opt-out signature --------------------------------------


class SignatureHit(NamedTuple):
    signature_id: str
    user_id: int
    evidence: dict


def hit_records(hits: Hits) -> list[SignatureHit]:
    """The hits as the loop oracle's records, in row order."""
    return [
        SignatureHit(
            OPTOUT_SIGNATURE_ID,
            user,
            {"last_day": (date(1970, 1, 1) + timedelta(days=day)).isoformat(), "noisy_count": n,
             "total_count": t, "ratio": r},
        )
        for user, day, n, t, r in zip(
            hits.users.tolist(), hits.days.tolist(), hits.noisy_count.tolist(),
            hits.total_count.tolist(), hits.ratio.tolist(),
        )
    ]


def detect_optout_loop(
    table: RatingsTable, labels, threshold: float = 0.5, denominator: str = DENOMINATOR_LAST_DAY
) -> list[SignatureHit]:
    """detect_optout with labels a (user, item) -> Verdict mapping that
    must cover every rating of the table."""
    hits: list[SignatureHit] = []
    for user in table.user_ids().tolist():
        rows = _rows(table.users, user)
        days = [utc_day(int(table.timestamps[k])) for k in rows]
        verdicts = []
        for k in rows:
            key = (user, int(table.items[k]))
            if key not in labels:
                raise ValueError(f"rating {key} has no label; signatures run after Layer 2")
            verdicts.append(labels[key])
        last_day = max(days)
        on_day = [v for d, v in zip(days, verdicts) if d == last_day]
        noisy_on_day = sum(1 for v in on_day if v is Verdict.NOISY)
        if denominator == DENOMINATOR_LAST_DAY:
            total = len(on_day)
        else:
            total = sum(1 for v in verdicts if v is Verdict.NOISY)
        if total > 0 and noisy_on_day / total > threshold:
            hits.append(
                SignatureHit(
                    OPTOUT_SIGNATURE_ID,
                    user,
                    {
                        "last_day": last_day,
                        "noisy_count": noisy_on_day,
                        "total_count": total,
                        "ratio": noisy_on_day / total,
                    },
                )
            )
    return hits


# -- Layer 2: kNN and trees ----------------------------------------------


def knn_proba_argsort(model: KnnClassifier, X: np.ndarray) -> np.ndarray:
    """A fitted KnnClassifier's probabilities, one query at a time.  Each
    distance is (|q|^2 + |x|^2) - 2 q.x with every sum taken left to right
    over the features, and a stable argsort picks the k nearest."""
    X = model.scaler.transform(np.asarray(X, dtype=np.float64))
    k = min(model.k, len(model.y))
    train_sq = np.zeros(len(model.X))
    for f in range(model.X.shape[1]):
        train_sq += model.X[:, f] * model.X[:, f]
    out = np.zeros(len(X))
    for i, q in enumerate(X):
        q_sq = 0.0
        dot = np.zeros(len(model.X))
        for f, value in enumerate(q):
            q_sq += value * value
            dot += value * model.X[:, f]
        d2 = (q_sq + train_sq) - 2.0 * dot
        out[i] = model.y[np.argsort(d2, kind="stable")[:k]].mean()
    return out


class ArgsortDecisionTree(DecisionTree):
    """DecisionTree that argsorts each candidate feature at every node."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ArgsortDecisionTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.n_features = X.shape[1]
        rng = np.random.default_rng(self.seed)
        self.root = self._grow_sorting(X, y, 0, rng)
        return self

    def _grow_sorting(self, X, y, depth, rng) -> _Node:
        n = len(y)
        n1 = int(y.sum())
        if (
            n < self.min_samples_split
            or n1 == 0
            or n1 == n
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return self._leaf(y)
        parent_imp = float(_gini(np.array([n1]), np.array([n]))[0])
        best = (parent_imp - _MIN_GAIN, -1, 0.0)
        for f in self._candidate_features(rng):
            xs = X[:, f]
            if self.splitter == "random":
                lo, hi = xs.min(), xs.max()
                if lo == hi:
                    continue
                thr = rng.uniform(lo, hi)
                left = xs <= thr
                nl = int(left.sum())
                if nl == 0 or nl == n:
                    continue
                n1l = int(y[left].sum())
                imp = (
                    nl * float(_gini(np.array([n1l]), np.array([nl]))[0])
                    + (n - nl) * float(_gini(np.array([n1 - n1l]), np.array([n - nl]))[0])
                ) / n
                if imp < best[0]:
                    best = (imp, int(f), float(thr))
                continue
            order = np.argsort(xs, kind="stable")
            xs_s = xs[order]
            ys_s = y[order]
            boundaries = np.flatnonzero(xs_s[:-1] < xs_s[1:])
            if len(boundaries) == 0:
                continue
            c1 = np.cumsum(ys_s)
            nl = boundaries + 1
            n1l = c1[boundaries]
            nr = n - nl
            n1r = n1 - n1l
            imps = (nl * _gini(n1l, nl) + nr * _gini(n1r, nr)) / n
            k = int(np.argmin(imps))
            if imps[k] < best[0]:
                thr = (xs_s[boundaries[k]] + xs_s[boundaries[k] + 1]) / 2.0
                best = (float(imps[k]), int(f), float(thr))
        if best[1] < 0:
            return self._leaf(y)
        node = _Node()
        node.feature = best[1]
        node.threshold = best[2]
        node.counts = (n - n1, n1)
        mask = X[:, node.feature] <= node.threshold
        node.left = self._grow_sorting(X[mask], y[mask], depth + 1, rng)
        node.right = self._grow_sorting(X[~mask], y[~mask], depth + 1, rng)
        return node


class ArgsortRegressionTree(RegressionTree):
    """RegressionTree that argsorts every feature at every node."""

    def fit(self, X: np.ndarray, g: np.ndarray, h: np.ndarray) -> "ArgsortRegressionTree":
        X = np.asarray(X, dtype=np.float64)
        self.n_features = X.shape[1]
        g = np.asarray(g, dtype=np.float64)
        self.root = self._grow_sorting(X, g, np.asarray(h, dtype=np.float64), 0)
        return self

    def _grow_sorting(self, X, g, h, depth) -> _Node:
        n = len(g)
        if n < self.min_samples_split or depth >= self.max_depth:
            return self._leaf(g, h)
        total_sse = float(g @ g) - g.sum() ** 2 / n
        best = (total_sse - _MIN_GAIN, -1, 0.0)
        for f in range(self.n_features):
            xs = X[:, f]
            order = np.argsort(xs, kind="stable")
            xs_s = xs[order]
            gs = g[order]
            boundaries = np.flatnonzero(xs_s[:-1] < xs_s[1:])
            if len(boundaries) == 0:
                continue
            csum = np.cumsum(gs)
            csq = np.cumsum(gs * gs)
            nl = boundaries + 1
            sl = csum[boundaries]
            ql = csq[boundaries]
            nr = n - nl
            sr = csum[-1] - sl
            qr = csq[-1] - ql
            sse = (ql - sl * sl / nl) + (qr - sr * sr / nr)
            k = int(np.argmin(sse))
            if sse[k] < best[0]:
                thr = (xs_s[boundaries[k]] + xs_s[boundaries[k] + 1]) / 2.0
                best = (float(sse[k]), int(f), float(thr))
        if best[1] < 0:
            return self._leaf(g, h)
        node = _Node()
        node.feature = best[1]
        node.threshold = best[2]
        mask = X[:, node.feature] <= node.threshold
        node.left = self._grow_sorting(X[mask], g[mask], h[mask], depth + 1)
        node.right = self._grow_sorting(X[~mask], g[~mask], h[~mask], depth + 1)
        return node


def train_gbt_refit(X, y, rounds=100, depth=3, lr=0.1, tree=RegressionTree) -> GbtModel:
    """train_gbt as a plain loop: each round fits a fresh tree of class
    `tree` to X and steps the score by that tree's prediction on X."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p1 = float(np.clip(y.mean(), 1e-12, 1.0 - 1e-12))
    base = float(np.log(p1 / (1.0 - p1)))
    score = np.full(len(y), base)
    trees: list[RegressionTree] = []
    losses: list[float] = [_log_loss(y, _sigmoid(score))]
    for _ in range(rounds):
        p = _sigmoid(score)
        g = y - p
        h = p * (1.0 - p)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            raise RuntimeError(f"non-finite gradient at round {len(trees)}")
        fitted = tree(max_depth=depth).fit(X, g, h)
        trees.append(fitted)
        score = score + lr * fitted.predict(X)
        losses.append(_log_loss(y, _sigmoid(score)))
    return GbtModel(base, trees, lr, losses)


def train_bagging(X, y, variant="EL4_1", bags=25, seed=0) -> ResselModel:
    """Plain bagging of RESSEL's base roster: bag b fits the classifier
    train_ressel starts bag b from, on the same bootstrap, and stops."""
    roster = base_roster(variant)
    classifiers = []
    for b in range(bags):
        idx = np.random.default_rng(derive_seed(seed, b)).integers(0, len(y), size=len(y))
        classifiers.append(roster[b % len(roster)](derive_seed(seed, b, 1)).fit(X[idx], y[idx]))
    return ResselModel(classifiers, [])


def ressel_batch_full_pool(clf, X_unlabeled, pool, take) -> tuple[np.ndarray, np.ndarray]:
    """RESSEL's batch choice from one prediction of the whole pool: per
    class c, a lexsort on (-confidence, pool id) and its first take[c] rows."""
    proba = clf.predict_proba(X_unlabeled[pool])
    pred = (proba > 0.5).astype(np.int64)
    conf = np.abs(proba - 0.5)
    batch_positions: list[int] = []
    for c in (0, 1):
        cand = np.flatnonzero(pred == c)
        order = np.lexsort((pool[cand], -conf[cand]))
        batch_positions.extend(cand[order[: take[c]]].tolist())
    batch = np.array(sorted(batch_positions), dtype=np.int64)
    return batch, pred[batch]


def tree_structure(node: _Node) -> list[tuple]:
    """Pre-order (feature, threshold, counts, value) of every node."""
    out = [(node.feature, node.threshold, node.counts, node.value)]
    if node.left is not None:
        out += tree_structure(node.left) + tree_structure(node.right)
    return out


# -- evaluation ----------------------------------------------------------

ARM_FIELDS = ("ndcg", "precision", "recall", "f1", "serendipity")


def _loop_mean(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def mf_predict(model: MfModel, user: int, item: int) -> float:
    """One MF prediction, mu + b_u + b_i + p_u . q_i clamped to the scale;
    an id the model does not know adds nothing."""
    score = model.global_mean
    ur = np.flatnonzero(model.users == user)
    ir = np.flatnonzero(model.items == item)
    if len(ur):
        score += model.bu[ur[0]]
    if len(ir):
        score += model.bi[ir[0]]
    if len(ur) and len(ir):
        score += float(model.P[ur[0]] @ model.Q[ir[0]])
    return clamp(model.scale, score)


def recommend_topk_loop(model: MfModel, train: RatingsTable, user: int, K: int) -> list[int]:
    """One user's top-K unrated item ids: every item scored, then sorted by
    (-score, item id)."""
    rated = set(_profile(train, user))
    ur = int(np.flatnonzero(model.users == user)[0])
    scores = model.global_mean + model.bu[ur] + model.bi + model.Q @ model.P[ur]
    np.clip(scores, model.scale.r_min, model.scale.r_max, out=scores)
    ranked = sorted(
        (-float(scores[k]), item) for k, item in enumerate(model.items.tolist()) if item not in rated
    )
    return [item for _, item in ranked[:K]]


def ranking_metrics_loop(items, relevant, K):
    """nDCG, precision, recall, F1 of one list, re-derived with explicit loops."""
    top = list(items)[:K]
    hits = [1.0 if item in relevant else 0.0 for item in top]
    dcg = 0.0
    for pos, rel in enumerate(hits, start=1):
        dcg += rel / math.log2(pos + 1)
    idcg = 0.0
    for pos in range(1, min(K, len(relevant)) + 1):
        idcg += 1.0 / math.log2(pos + 1)
    ndcg = dcg / idcg if idcg else 0.0
    precision = sum(hits) / K
    recall = sum(hits) / len(relevant) if relevant else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ndcg, precision, recall, f1


def serendipity_loop(recs, history, relevant, genres, formula=FORMULA_COMPLEMENT) -> float:
    """One list's mean over recommended items of u_i * rel_i, re-derived
    with loops.  Both means are np.mean over a list, as the per-user code
    took them, so the result compares bit for bit."""
    hist = []
    for h in sorted(history):
        v = np.asarray(genre_vector(genres, h), dtype=float)
        if np.linalg.norm(v) > 0:
            hist.append(v)
    if not recs or not hist:
        return 0.0
    contribs = []
    for item in recs:
        v = np.asarray(genre_vector(genres, item), dtype=float)
        nv = np.linalg.norm(v)
        if nv == 0:
            continue
        sims = [float(v @ h) / (nv * float(np.linalg.norm(h))) for h in hist]
        s = float(np.mean(sims))
        u = s if formula == FORMULA_PAPER_LITERAL else 1.0 - s
        contribs.append(u if item in relevant else 0.0)
    return float(np.mean(contribs)) if contribs else 0.0


def evaluate_arm_loop(model, corpus, eval_t, universe, genres, K, threshold, formula):
    """user -> {field: value} over ARM_FIELDS, one user at a time."""
    out = {}
    for user in universe:
        recs = recommend_topk_loop(model, corpus, user, K)
        relevant = {
            int(eval_t.items[k]) for k in _rows(eval_t.users, user)
            if float(eval_t.values[k]) >= threshold
        }
        values = ranking_metrics_loop(recs, relevant, K)
        ser = serendipity_loop(recs, set(_profile(corpus, user)), relevant, genres, formula)
        out[user] = dict(zip(ARM_FIELDS, (*values, ser)))
    return out


def critical_groups_loop(arm, clusters) -> float:
    """Share of clusters whose mean nDCG falls below the mean cluster mean."""
    members: dict[int, list[float]] = {}
    for user in sorted(arm):
        members.setdefault(clusters[user], []).append(arm[user]["ndcg"])
    means = [_loop_mean(members[c]) for c in sorted(members)]
    mean = _loop_mean(means)
    return 100.0 * sum(1 for v in means if v < mean) / len(means)


class DeltaPoint(NamedTuple):
    user_id: int
    cluster: int
    x: float
    y: float
    quadrant: Quadrant
    positive: bool
    boundary: bool


def quadrant(x: float, y: float) -> Quadrant:
    """Quadrant from the signs of (x, y).

    Zero coordinates take the positive-sign convention, except the exact
    origin which gets its own label.
    """
    if x == 0.0 and y == 0.0:
        return Quadrant.ORIGIN
    px = x >= 0.0
    py = y >= 0.0
    if px and py:
        return Quadrant.I
    if not px and py:
        return Quadrant.II
    if not px and not py:
        return Quadrant.III
    return Quadrant.IV


def delta_records(report: DeltaReport) -> list[DeltaPoint]:
    """The report's points as the loop oracle's records, in row order."""
    return [
        DeltaPoint(user, cluster, x, y, QUADRANTS[q], positive, boundary)
        for user, cluster, x, y, q, positive, boundary in zip(
            report.users.tolist(), report.clusters.tolist(), report.x.tolist(),
            report.y.tolist(), report.quadrant.tolist(), report.positive.tolist(),
            report.boundary.tolist(),
        )
    ]


def delta_points_loop(before, after, clusters, metric, plane, basis, weights):
    """The delta report of two evaluate_arm_loop results over the same users:
    (points, percent positive, global means before, global means after)."""
    points = []
    for user in sorted(before):
        x = after[user]["serendipity"] - before[user]["serendipity"]
        y = after[user][metric] - before[user][metric]
        points.append(DeltaPoint(
            user, clusters[user], x, y, quadrant(x, y), plane_positive(x, y, plane),
            x == 0.0 or y == 0.0,
        ))
    if basis == BASIS_USERS:
        pct = 100.0 * sum(1 for p in points if p.positive) / len(points)
    else:
        total = sum(weights[p.user_id] for p in points)
        hit = sum(weights[p.user_id] for p in points if p.positive)
        pct = 100.0 * hit / total if total else 0.0
    means = [
        {f: _loop_mean([arm[u][f] for u in sorted(arm)]) for f in ARM_FIELDS}
        for arm in (before, after)
    ]
    return points, pct, means[0], means[1]


# -- artifact CSVs -------------------------------------------------------


def dedupe_rows(rows):
    """Collapse duplicate (user, item) keys keeping the latest timestamp.

    Timestamp ties keep the later occurrence.  Returns (rows, dropped_count).
    """
    best: dict[tuple[int, int], tuple[int, int, float, int]] = {}
    dropped = 0
    for row in rows:
        key = (row[0], row[1])
        prev = best.get(key)
        if prev is None:
            best[key] = row
        else:
            dropped += 1
            if row[3] >= prev[3]:
                best[key] = row
    return list(best.values()), dropped


def csv_rows(path, header) -> list[list[str]]:
    """The rows under the header of a CSV, through csv.reader.  ValueError
    unless the first row is exactly the header and every row has one field
    per column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != tuple(header):
            raise ValueError(f"{path}: expected header {','.join(header)}")
        rows = list(reader)
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: expected {len(header)} fields in every row")
    return rows


def read_feature_rows(path):
    """read_features through csv.reader, int() and float()."""
    rows = csv_rows(path, FEATURES_HEADER)
    ids = [(int(row[0]), int(row[1])) for row in rows]
    X = np.array([[float(v) for v in row[2:]] for row in rows])
    X = X.reshape(-1, len(FEATURES_HEADER) - 2)
    users, items = np.array(ids, dtype=np.int64).reshape(-1, 2).T
    return users, items, X


def read_vote_rows(path) -> Votes:
    """read_votes through csv.reader, one row at a time: four Verdicts and
    the Consensus of their unanimity."""
    ids, noisy, codes = [], [], []
    for lineno, row in enumerate(csv_rows(path, VOTES_HEADER), start=2):
        flags = [Verdict(v) is Verdict.NOISY for v in row[2:6]]
        if all(flags):
            code = CONSENSUS.index(Consensus.NOISY)
        else:
            code = CONSENSUS.index(Consensus.UNCERTAIN if any(flags) else Consensus.CLEAN)
        if row[6] != CONSENSUS[code].value:
            raise ValueError(f"{path}:{lineno}: consensus {row[6]!r} of votes {row[2:6]}")
        ids.append((int(row[0]), int(row[1])))
        noisy.append(flags)
        codes.append(code)
    users, items = np.array(ids, dtype=np.int64).reshape(-1, 2).T
    return Votes(
        users, items, np.array(noisy, dtype=bool).reshape(-1, 4), np.array(codes, dtype=np.int8)
    )


def read_classification_rows(path, variant: str):
    """read_classification through csv.reader, one row at a time."""
    ids, noisy, scores = [], [], []
    for lineno, row in enumerate(csv_rows(path, CLASSIFICATION_HEADER), start=2):
        ids.append((int(row[0]), int(row[1])))
        scores.append(float(row[2]))
        noisy.append(Verdict(row[3]) is Verdict.NOISY)
        if row[4] != variant:
            raise ValueError(f"{path}:{lineno}: variant {row[4]!r}, expected {variant!r}")
    users, items = np.array(ids, dtype=np.int64).reshape(-1, 2).T
    return users, items, np.array(noisy, dtype=bool), np.array(scores, dtype=np.float64)


def csv_writer_text(header, rows) -> str:
    """The header and rows as csv.writer writes them."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def ratings_rows(table: RatingsTable):
    return ([u, i, repr(float(v)), t] for u, i, v, t in ratings(table))


def feature_rows(keys, X: np.ndarray):
    return ([user, item, *[repr(float(v)) for v in row]] for (user, item), row in zip(keys, X))


def vote_rows(votes: Votes):
    for user, item, flags, code in zip(
        votes.users.tolist(), votes.items.tolist(), votes.noisy.tolist(), votes.consensus.tolist()
    ):
        yield [user, item, *["noisy" if f else "clean" for f in flags], CONSENSUS[code].value]


def classification_rows(cells, variant: str):
    """Rows of a (user, item) -> (Verdict, score) mapping, in its order."""
    return (
        [user, item, repr(float(score)), label.value, variant]
        for (user, item), (label, score) in cells.items()
    )


def hit_rows(hits, action):
    return (
        [h.signature_id, h.user_id, h.evidence["last_day"], h.evidence["noisy_count"],
         h.evidence["total_count"], repr(float(h.evidence["ratio"])), action.value]
        for h in sorted(hits, key=lambda h: (h.signature_id, h.user_id))
    )


def delta_rows(points):
    """Rows of DeltaPoint records, in their order."""
    return (
        [p.user_id, p.cluster, repr(float(p.x)), repr(float(p.y)), p.quadrant.value,
         "true" if p.positive else "false"]
        for p in points
    )
