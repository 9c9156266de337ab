"""Prediction and recommendation primitives.

Two predictors live here: a Pearson-correlation user-kNN (used by the
accuracy-centered detector) and a biased matrix-factorization recommender
trained by alternating least squares (used by the evaluation protocol and
for user clustering).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import RatingsTable, Scale, sorted_index, split_runs
from .ioutil import atomic_write_text

CHECKPOINT_FORMAT = "noisegate-mf"
CHECKPOINT_VERSION = 1

# Variance sums below this are treated as exactly zero.  Ratings live on a
# coarse grid, so any genuinely nonzero variance sum is orders of magnitude
# larger than accumulated rounding error.
_VAR_EPS = 1e-9


@dataclass(frozen=True)
class KnnConfig:
    k: int = 35
    min_overlap: int = 2
    significance_cap: int = 50

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.min_overlap < 1:
            raise ValueError("min_overlap must be >= 1")
        if self.significance_cap < 1:
            raise ValueError("significance_cap must be >= 1")


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


class SimilarityMatrix:
    """All-pairs significance-weighted Pearson similarities for one table.

    Matches pearson_similarity pairwise to floating-point noise while being
    computed with five dense matrix products instead of per-pair loops.
    """

    def __init__(self, table: RatingsTable, cfg: KnnConfig = KnnConfig()):
        self.cfg = cfg
        self.user_ids = table.user_ids()
        self.index = {u: k for k, u in enumerate(self.user_ids)}
        item_ids = table.item_ids()
        item_index = {i: k for k, i in enumerate(item_ids)}
        nu, ni = len(self.user_ids), len(item_ids)
        R = np.zeros((nu, ni))
        M = np.zeros((nu, ni))
        rows_u = np.fromiter((self.index[int(u)] for u in table.users), dtype=np.int64, count=len(table))
        rows_i = np.fromiter((item_index[int(i)] for i in table.items), dtype=np.int64, count=len(table))
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
        self.matrix = raw * np.minimum(n, cfg.significance_cap) / cfg.significance_cap

    def between(self, user_a: int, user_b: int) -> float:
        return float(self.matrix[self.index[user_a], self.index[user_b]])

    def row(self, user: int) -> np.ndarray:
        return self.matrix[self.index[user]]


def _weighted_neighbors(
    w: np.ndarray, dev: np.ndarray, base: np.ndarray, k: int, scale: Scale
) -> np.ndarray:
    """Predictions for rows of weights over one item's raters; NaN when unpredictable.

    w holds one row per prediction with one column per rater, raters in
    ascending user id and self-pairs zeroed; dev is each rater's rating
    minus their mean, and base each row's own user mean.  A stable sort on
    -|w| keeps the ascending user order among ties, and both sums run left
    to right over the k chosen neighbors, as a sequential sum would.  When
    fewer than k raters have a nonzero weight, the zero weights sorted after
    them add exact zeros; a row with no nonzero weight is unpredictable.
    """
    top = np.argsort(-np.abs(w), axis=1, kind="stable")[:, :k]
    w = np.take_along_axis(w, top, axis=1)
    num = np.cumsum(w * dev[top], axis=1)[:, -1]
    den = np.cumsum(np.abs(w), axis=1)[:, -1]
    out = np.full(len(w), np.nan)
    ok = den != 0.0
    pred = base[ok] + num[ok] / den[ok]
    out[ok] = np.minimum(scale.r_max, np.maximum(scale.r_min, pred))
    return out


def knn_predict_rows(
    train: RatingsTable,
    users: np.ndarray,
    items: np.ndarray,
    cfg: KnnConfig = KnnConfig(),
    sims: SimilarityMatrix | None = None,
) -> np.ndarray:
    """Mean-centered weighted kNN prediction per (users[k], items[k]); NaN means unpredictable.

    Neighbors are train users with nonzero similarity who rated the item,
    ranked by |similarity| descending (ties by ascending user id), truncated
    to cfg.k.  The prediction is clamped to the rating scale.  Users absent
    from train are unpredictable.

    Rows are grouped by item, so each item's raters are gathered once, as one
    block of the similarity matrix (built here when sims is None).
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    out = np.full(len(users), np.nan)
    if len(train) == 0 or len(users) == 0:
        return out
    if sims is None:
        sims = SimilarityMatrix(train, cfg)
    ids = np.asarray(sims.user_ids, dtype=np.int64)
    stats = train.user_stats()
    means = np.array([stats[u][0] for u in sims.user_ids])
    pos = sorted_index(ids, users)
    todo = np.flatnonzero(pos < len(ids))
    todo = todo[np.argsort(items[todo], kind="stable")]
    for item, rows in split_runs(items[todo], todo).items():
        raters = train.item_rows(item)
        if len(raters) == 0:
            continue
        u = pos[rows]
        v = np.searchsorted(ids, train.users[raters])
        w = sims.matrix[np.ix_(u, v)]
        w[u[:, None] == v[None, :]] = 0.0
        dev = train.values[raters] - means[v]
        out[rows] = _weighted_neighbors(w, dev, means[u], cfg.k, train.scale)
    return out


def knn_predict(
    train: RatingsTable,
    user: int,
    item: int,
    cfg: KnnConfig = KnnConfig(),
    sims: SimilarityMatrix | None = None,
) -> float | None:
    """knn_predict_rows for one rating; None means unpredictable.

    Without sims, only the item's raters are weighted, each by
    pearson_similarity against the user: O(raters x profile), with no
    all-pairs matrix.
    """
    if len(train.user_rows(user)) == 0:
        raise ValueError(f"user {user} not in train")
    if sims is not None:
        pred = knn_predict_rows(train, np.array([user]), np.array([item]), cfg, sims)[0]
        return None if np.isnan(pred) else float(pred)
    raters = train.item_rows(item)
    if len(raters) == 0:
        return None
    stats = train.user_stats()
    profile = train.user_profile(user)
    neighbors = train.users[raters].tolist()
    w = np.array([[
        0.0 if v == user else pearson_similarity(profile, train.user_profile(v), cfg)
        for v in neighbors
    ]])
    dev = train.values[raters] - np.array([stats[v][0] for v in neighbors])
    pred = _weighted_neighbors(w, dev, np.array([stats[user][0]]), cfg.k, train.scale)[0]
    return None if np.isnan(pred) else float(pred)


# -- matrix factorization ----------------------------------------------


class MfModel:
    """Biased MF model: prediction = mu + b_u + b_i + p_u . q_i, clamped to scale."""

    def __init__(
        self,
        users: list[int],
        items: list[int],
        P: np.ndarray,
        Q: np.ndarray,
        bu: np.ndarray,
        bi: np.ndarray,
        global_mean: float,
        scale: Scale,
        rmse_per_epoch: list[float] | None = None,
    ):
        self.users = list(users)
        self.items = list(items)
        self.P = P
        self.Q = Q
        self.bu = bu
        self.bi = bi
        self.global_mean = global_mean
        self.scale = scale
        self.rmse_per_epoch = list(rmse_per_epoch or [])
        self.urow = {u: k for k, u in enumerate(self.users)}
        self.irow = {i: k for k, i in enumerate(self.items)}

    @property
    def f(self) -> int:
        return self.P.shape[1]

    @property
    def user_factors(self) -> dict[int, np.ndarray]:
        return {u: self.P[k] for u, k in self.urow.items()}

    @property
    def item_factors(self) -> dict[int, np.ndarray]:
        return {i: self.Q[k] for i, k in self.irow.items()}

    def predict(self, user: int, item: int) -> float:
        score = self.global_mean
        ur = self.urow.get(user)
        ir = self.irow.get(item)
        if ur is not None:
            score += self.bu[ur]
        if ir is not None:
            score += self.bi[ir]
        if ur is not None and ir is not None:
            score += float(self.P[ur] @ self.Q[ir])
        return self.scale.clamp(score)

    def user_vector(self, user: int) -> np.ndarray:
        return self.P[self.urow[user]]


# Rows per batched ridge solve: bounds the (rows, d, d) Gram stack a
# half-sweep holds at once, d = factors + 1.
_SOLVE_ROWS = 128


def _ridge_rows(
    mask: np.ndarray,
    resid: np.ndarray,
    fixed: np.ndarray,
    offset: np.ndarray,
    reg: float,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One ALS half-sweep: the ridge solution ``[factors, bias]`` of every row.

    Row r is fitted to the targets ``resid[r, c] - offset[c]`` over its rated
    columns (``mask[r, c] == 1``) with design rows ``[fixed[c], 1]`` and ridge
    weight ``reg * counts[r]`` (ALS-WR).  All Gram blocks of a row block come
    from one product of the 0/1 mask with the upper triangles of the
    per-column outer products; with ``reg == 0`` the blocks can be singular
    and the minimum-norm solution is taken.
    """
    n, f = mask.shape[0], fixed.shape[1]
    d = f + 1
    design = np.hstack([fixed, np.ones((len(fixed), 1))])
    iu, ju = np.triu_indices(d)
    outer = design[:, iu]
    outer *= design[:, ju]
    shifted = offset[:, None] * design
    diag = np.arange(d)
    out = np.empty((n, d))
    for lo in range(0, n, _SOLVE_ROWS):
        rows = slice(lo, lo + _SOLVE_ROWS)
        upper = mask[rows] @ outer
        gram = np.empty((len(upper), d, d))
        gram[:, iu, ju] = upper
        gram[:, ju, iu] = upper
        rhs = (resid[rows] @ design - mask[rows] @ shifted)[:, :, None]
        if reg > 0:
            gram[:, diag, diag] += reg * counts[rows, None]
            out[rows] = np.linalg.solve(gram, rhs)[:, :, 0]
        else:
            out[rows] = (np.linalg.pinv(gram) @ rhs)[:, :, 0]
    return out[:, :f], out[:, f]


def mf_train(
    train: RatingsTable,
    f: int = 16,
    epochs: int = 20,
    reg: float = 0.02,
    seed: int = 0,
) -> MfModel:
    """Biased MF fitted by alternating least squares (ALS-WR).

    Minimizes the squared error over the rated cells plus
    ``reg * (|p_u|^2 + |q_i|^2 + b_u^2 + b_i^2)`` per rating, which is
    ALS-WR's ridge of ``reg * n_row`` on each user's ``[p_u, b_u]`` and
    each item's ``[q_i, b_i]`` (Zhou et al. 2008).  Each sweep solves every
    user against the fixed items, then every item against the fixed users,
    so after training each item is the exact ridge minimizer given the
    users.  Item factors start from a seeded normal draw and every step is
    deterministic, so the result is bitwise-reproducible for a fixed seed.
    Training RMSE is recorded per sweep; a non-finite loss aborts with
    diagnostics.
    """
    if len(train) == 0:
        raise ValueError("train table is empty")
    users = train.user_ids()
    items = train.item_ids()
    urow = np.searchsorted(np.array(users, dtype=np.int64), train.users)
    irow = np.searchsorted(np.array(items, dtype=np.int64), train.items)
    values = train.values
    mu = float(values.mean())
    mask = np.zeros((len(users), len(items)))
    mask[urow, irow] = 1.0
    resid = np.zeros((len(users), len(items)))
    resid[urow, irow] = values - mu
    n_u = np.bincount(urow, minlength=len(users)).astype(np.float64)
    n_i = np.bincount(irow, minlength=len(items)).astype(np.float64)
    rng = np.random.default_rng(seed)
    # init noise on p.q scales with sqrt(f) * sigma^2; keep it ~1e-2 at any f
    sigma = 0.1 / math.sqrt(f)
    Q = rng.normal(0.0, sigma, size=(len(items), f))
    bi = np.zeros(len(items))
    rmse_per_epoch: list[float] = []
    for epoch in range(epochs):
        P, bu = _ridge_rows(mask, resid, Q, bi, reg, n_u)
        Q, bi = _ridge_rows(mask.T, resid.T, P, bu, reg, n_i)
        pred = (P @ Q.T)[urow, irow] + bu[urow] + bi[irow]
        rmse = float(np.sqrt(np.mean((values - mu - pred) ** 2)))
        if not np.isfinite(rmse):
            raise RuntimeError(
                f"MF training diverged at sweep {epoch}: rmse={rmse} "
                f"(f={f}, reg={reg}, seed={seed})"
            )
        rmse_per_epoch.append(rmse)
    return MfModel(users, items, P, Q, bu, bi, mu, train.scale, rmse_per_epoch)


class TopKList(NamedTuple):
    user_id: int
    items: list[tuple[int, float]]


def recommend_topk(model: MfModel, train: RatingsTable, user: int, K: int) -> TopKList:
    """Top-K unrated items by predicted score, ties broken by ascending item id."""
    if user not in model.urow:
        raise ValueError(f"user {user} unknown to model")
    if K < 0:
        raise ValueError("K must be >= 0")
    rated = set(train.user_profile(user))
    ur = model.urow[user]
    scores = model.global_mean + model.bu[ur] + model.bi + model.Q @ model.P[ur]
    np.clip(scores, model.scale.r_min, model.scale.r_max, out=scores)
    item_ids = np.array(model.items, dtype=np.int64)
    keep = np.array([i not in rated for i in model.items], dtype=bool)
    scores = scores[keep]
    item_ids = item_ids[keep]
    order = np.lexsort((item_ids, -scores))[:K]
    return TopKList(user, [(int(item_ids[k]), float(scores[k])) for k in order])


# -- checkpointing ------------------------------------------------------


def save_model(model: MfModel, path: str | Path) -> None:
    blob = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "f": model.f,
        "global_mean": model.global_mean,
        "scale": [model.scale.r_min, model.scale.r_max],
        "users": model.users,
        "items": model.items,
        "user_bias": model.bu.tolist(),
        "item_bias": model.bi.tolist(),
        "user_factors": model.P.tolist(),
        "item_factors": model.Q.tolist(),
        "rmse_per_epoch": model.rmse_per_epoch,
    }
    atomic_write_text(path, json.dumps(blob, sort_keys=True) + "\n")


def load_model(path: str | Path) -> MfModel:
    with Path(path).open() as fh:
        blob = json.load(fh)
    if blob.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} checkpoint")
    if blob.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {blob.get('version')}")
    return MfModel(
        blob["users"],
        blob["items"],
        np.array(blob["user_factors"], dtype=np.float64).reshape(len(blob["users"]), blob["f"]),
        np.array(blob["item_factors"], dtype=np.float64).reshape(len(blob["items"]), blob["f"]),
        np.array(blob["user_bias"], dtype=np.float64),
        np.array(blob["item_bias"], dtype=np.float64),
        float(blob["global_mean"]),
        Scale(*blob["scale"]),
        [float(x) for x in blob.get("rmse_per_epoch", [])],
    )
