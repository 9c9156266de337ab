"""Per-rating loop versions of the board detectors and the feature builder,
per-row / per-node sort versions of the Layer-2 kNN and trees, and the
per-row csv.writer renderings of the artifact writers.

These are the reference implementations the array code in `noisegate.board`
and `noisegate.ensemble` is checked against, bit for bit: one Python
iteration per rating, neighbor or genre, with row lookups done by a plain
scan of the table's columns.  Per-rating outputs come back as arrays in
test row order, as the array code gives them; an unpredictable NF3
rating's None becomes NaN there.  The kNN oracle argsorts every query's
distances; the tree oracles argsort every candidate feature at every node.
The artifact oracles format one cell at a time and hand the rows to
csv.writer; dedupe_rows collapses duplicate rating keys through a dict.
The opt-out signature oracle looks each rating's label up by its
(user, item) key and formats every rating's UTC day.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from noisegate.board import CONSENSUS, BoardResult, Consensus, Votes
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
from noisegate.board.verdict import DETECTOR_IDS, Verdict
from noisegate.dataset import RatingsTable
from noisegate.ensemble.learners import KnnClassifier
from noisegate.ensemble.trees import _MIN_GAIN, DecisionTree, RegressionTree, _gini, _Node
from noisegate.recsys import KnnConfig, SimilarityMatrix, pearson_similarity
from noisegate.signature import (
    DENOMINATOR_LAST_DAY,
    OPTOUT_SIGNATURE_ID,
    SignatureHit,
    utc_day,
)


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
    noisy = []
    for r in test:
        expected = HOMOLOGOUS.get((user_classes[r.user_id], item_classes[r.item_id]))
        if expected is not None and classify_rating(r.value, cuts) is not expected:
            noisy.append(True)
        else:
            noisy.append(False)
    return Nf1Result(np.array(noisy, dtype=bool), user_classes, item_classes)


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
    noisy = []
    rnd_values = []
    for r in test:
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
        rnd_values.append(rnd)
        if group.quantity is Quantity.MEDIUM and group.quality is Quality.EASY:
            noisy.append(False)
        else:
            noisy.append(rnd > rnd_cut)
    return Nf2Result(np.array(noisy, dtype=bool), groups, np.array(rnd_values))


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
    noisy, cons, preds = [], [], []
    unpredictable = 0
    for r in test:
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
        u: _mean_profile(_profile_values(test, ctx, "users", u), scale)
        for u in {int(x) for x in test.users}
    }
    item_profiles = {
        i: _mean_profile(_profile_values(test, ctx, "items", i), scale)
        for i in {int(x) for x in test.items}
    }
    noisy, degrees = [], []
    prefiltered = 0
    for r in test:
        up = user_profiles[r.user_id]
        ip = item_profiles[r.item_id]
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
        user_profiles, item_profiles, prefiltered,
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


_USER_CODE = {c: float(k) for k, c in enumerate(_USER_CLASSES)}
_ITEM_CODE = {c: float(k) for k, c in enumerate(_ITEM_CLASSES)}


def feature_matrix_loop(
    test: RatingsTable, context: RatingsTable, board: BoardResult
) -> tuple[list[tuple[int, int]], np.ndarray]:
    scale = context.scale
    keys, rows = [], []
    for k, r in enumerate(test):
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
                _USER_CODE[board.nf1.user_classes[r.user_id]],
                _ITEM_CODE[board.nf1.item_classes[r.item_id]],
                board.nf4.noise_degree[k],
                0.0 if math.isnan(c) else c,
                1.0 if math.isnan(c) else 0.0,
                board.nf2.rnd[k],
            ]
            + [1.0 if board.votes.noisy[k, d] else 0.0 for d in range(len(DETECTOR_IDS))]
        ))
    return keys, np.vstack(rows)


# -- Layer 3: the opt-out signature --------------------------------------


def detect_optout_loop(
    table: RatingsTable, labels, threshold: float = 0.5, denominator: str = DENOMINATOR_LAST_DAY
) -> list[SignatureHit]:
    """detect_optout with labels a (user, item) -> Verdict mapping that
    must cover every rating of the table."""
    hits: list[SignatureHit] = []
    for user in table.user_ids():
        rows = table.user_rows(user)
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
    """A fitted KnnClassifier's probabilities from a stable argsort per query."""
    X = model.scaler.transform(np.asarray(X, dtype=np.float64))
    k = min(model.k, len(model.y))
    out = np.zeros(len(X))
    train_sq = np.sum(model.X**2, axis=1)
    for start in range(0, len(X), 512):
        chunk = X[start : start + 512]
        d2 = np.sum(chunk**2, axis=1)[:, None] + train_sq[None, :] - 2.0 * chunk @ model.X.T
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        out[start : start + 512] = model.y[nearest].mean(axis=1)
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


def tree_structure(node: _Node) -> list[tuple]:
    """Pre-order (feature, threshold, counts, value) of every node."""
    out = [(node.feature, node.threshold, node.counts, node.value)]
    if node.left is not None:
        out += tree_structure(node.left) + tree_structure(node.right)
    return out


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


def csv_writer_text(header, rows) -> str:
    """The header and rows as csv.writer writes them."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def ratings_rows(table: RatingsTable):
    return ([u, i, repr(float(v)), t] for u, i, v, t in table.rows())


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
