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

import numpy as np

from .dataset import RatingsTable, Scale, id_runs, id_stats, sorted_index
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


# Cells per block of SimilarityMatrix: bounds the users x items rows of a
# block and, through a cap of sqrt(_TILE_CELLS) rows, the users x users
# tile of a pair of blocks.
_TILE_CELLS = 1 << 16


class SimilarityMatrix:
    """All-pairs significance-weighted Pearson similarities for one table.

    Row and column k belong to user_ids[k], ids ascending.  For users a and
    b with co-rated items, the raw correlation over those items is scaled by
    min(n, significance_cap) / significance_cap, so that similarities backed
    by few co-rated items carry less weight; overlaps below min_overlap and
    zero variances give 0.

    The build is tiled (Goto & van de Geijn 2008).  Users are cut into
    blocks of b = min(_TILE_CELLS // I, sqrt(_TILE_CELLS)) rows, at least
    one.  For every pair of blocks A <= B, the dense ratings R, the 0/1
    mask M and R^2 of both blocks are built from the table's sorted rows,
    and the sums of the pair are tile products of them: R_A R_B^T,
    R_A M_B^T, R^2_A M_B^T and M_A M_B^T, plus M_A R_B^T and M_A R^2_B^T
    for the transposed sums when A != B.  The tile lands at matrix[A, B]
    and, transposed, at matrix[B, A].  So the build holds the result, two
    int64 row indices over the N ratings, six blocks and a few tiles:
    about 8 * (U^2 + 2 N + 6 b I + 7 b^2) bytes.

    A table of one block runs the four products of the whole-array build
    on the same operands, and every elementwise step rounds as the
    expression it replaces (t / n under where=(n > 0) leaves t as t / 1
    would), so the matrix keeps its bits.  Products of other shapes may
    sum in another order, which changes nothing while every product and
    partial sum is exact, as on a half-point rating grid; off the grid a
    cell can move in its last bits.  Either way the matrix is exactly
    symmetric: a diagonal tile is, as the whole build is, and an
    off-diagonal tile is mirrored.
    """

    def __init__(self, table: RatingsTable, cfg: KnnConfig = KnnConfig()):
        self.cfg = cfg
        self.user_ids = table.user_ids()
        item_ids = table.item_ids()
        rows_u = np.searchsorted(self.user_ids, table.users)
        rows_i = np.searchsorted(item_ids, table.items)
        nu, ni = len(self.user_ids), len(item_ids)
        step = max(1, min(_TILE_CELLS // max(ni, 1), math.isqrt(_TILE_CELLS)))
        starts = list(range(0, nu, step))
        bounds = np.searchsorted(rows_u, starts + [nu]).tolist()

        def block(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            rows = slice(bounds[k], bounds[k + 1])
            R = np.zeros((min(step, nu - starts[k]), ni))
            M = np.zeros_like(R)
            at = (rows_u[rows] - starts[k], rows_i[rows])
            R[at] = table.values[rows]
            M[at] = 1.0
            return R, M, np.multiply(R, R)

        self.matrix = np.empty((nu, nu))
        for a, lo in enumerate(starts):
            A = block(a)
            for b in range(a, len(starts)):
                tile = _similarity_tile(A, A if b == a else block(b), cfg)
                rows, cols = slice(lo, lo + len(tile)), slice(starts[b], starts[b] + tile.shape[1])
                self.matrix[rows, cols] = tile
                if b != a:
                    self.matrix[cols, rows] = tile.T

    def between(self, user_a: int, user_b: int) -> float:
        a, b = sorted_index(self.user_ids, np.array([user_a, user_b]))
        return float(self.matrix[a, b])


def _centered_square(s2: np.ndarray, s: np.ndarray, n: np.ndarray, counted: np.ndarray,
                     t: np.ndarray) -> np.ndarray:
    """s2 - s * s / n into s2, through the scratch t; cells with n == 0 are
    s2 - s * s."""
    np.multiply(s, s, out=t)
    np.divide(t, n, out=t, where=counted)
    return np.subtract(s2, t, out=s2)


def _similarity_tile(A: tuple, B: tuple, cfg: KnnConfig) -> np.ndarray:
    """SimilarityMatrix's cells between the users of block A and those of
    block B, each an (R, M, R^2) triple of dense rows; B is A on a diagonal
    tile.  Every step after the products runs in place on the tile buffers
    and one scratch tile, the result landing in the buffer of R_A R_B^T."""
    (RA, MA, SA), (RB, MB, SB) = A, B
    sxy = RA @ RB.T
    sx = RA @ MB.T
    sxx = SA @ MB.T
    n = MA @ MB.T
    sx_t = sx.T if B is A else MA @ RB.T
    counted = n > 0
    t = np.multiply(sx, sx_t)
    with np.errstate(invalid="ignore"):
        np.divide(t, n, out=t, where=counted)
        cov = np.subtract(sxy, t, out=sxy)
        var_x = _centered_square(sxx, sx, n, counted, t)
        var_y = var_x.T if B is A else _centered_square(MA @ SB.T, sx_t, n, counted, t)
        np.multiply(var_x, var_y, out=t)
        denom = np.sqrt(t, out=t)
        np.divide(cov, denom, out=cov, where=denom > 0)
    keep = (var_x > _VAR_EPS) & (var_y > _VAR_EPS) & (n >= cfg.min_overlap)
    np.copyto(cov, 0.0, where=~keep)
    np.clip(cov, -1.0, 1.0, out=cov)
    np.multiply(cov, np.minimum(n, cfg.significance_cap, out=n), out=cov)
    return np.divide(cov, cfg.significance_cap, out=cov)


# Cells per block of knn_predict_rows: bounds the padded (rows x raters)
# arrays that one block of predictions holds at once.
_BLOCK_CELLS = 1 << 14


def _weighted_neighbors(
    w: np.ndarray, dev: np.ndarray, base: np.ndarray, k: int, scale: Scale
) -> np.ndarray:
    """Predictions for rows of weights over raters; NaN when unpredictable.

    w holds one row per prediction with one column per rater, raters in
    ascending user id and self-pairs zeroed; dev holds each rater's rating
    minus their mean, aligned with w, and base each row's own user mean.
    Columns past a row's raters carry zero weight.  A stable sort on -|w|
    keeps the column order among ties, and both sums run left to right over
    the k chosen neighbors, as a sequential sum would.  When fewer than k
    columns have a nonzero weight, the zero weights sorted after them add
    exact zeros; a row with no nonzero weight is unpredictable.
    """
    top = np.argsort(-np.abs(w), axis=1, kind="stable")[:, :k]
    w = np.take_along_axis(w, top, axis=1)
    num = np.cumsum(w * np.take_along_axis(dev, top, axis=1), axis=1)[:, -1]
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

    Rows are sorted by their item's rater count and predicted in blocks of
    at most _BLOCK_CELLS padded cells.  A block gathers each row's raters
    from the train rows in (item, user) order, with their weights from the
    similarity matrix (built here when sims is None); a row's columns past
    its item's raters are zero weights, which sort after its real ones and
    add exact zeros whatever deviation they read.
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    out = np.full(len(users), np.nan)
    if len(train) == 0 or len(users) == 0:
        return out
    if sims is None:
        sims = SimilarityMatrix(train, cfg)
    ids, means = id_stats(train.users, train.values)[:2]
    if not np.array_equal(ids, sims.user_ids):
        raise ValueError("sims were built over another table's users")
    order, item_ids, starts, counts = id_runs(train.items)
    raters = np.searchsorted(ids, train.users[order])
    devs = train.values[order] - means[raters]
    pos = sorted_index(ids, users)
    at = sorted_index(item_ids, items)
    todo = np.flatnonzero((pos < len(ids)) & (at < len(item_ids)))
    todo = todo[np.argsort(counts[at[todo]], kind="stable")]
    widths = counts[at[todo]]
    lo = 0
    while lo < len(todo):
        # widths ascend, so the rows whose block would fit form a prefix
        fits = np.arange(1, len(todo) - lo + 1) * widths[lo:] <= _BLOCK_CELLS
        hi = lo + max(1, int(np.count_nonzero(fits)))
        rows = todo[lo:hi]
        u, a = pos[rows], at[rows]
        j = np.arange(widths[hi - 1])
        real = j < counts[a, None]
        cols = np.where(real, starts[a, None] + j, 0)
        v = raters[cols]
        w = sims.matrix[u[:, None], v]
        w[~real | (v == u[:, None])] = 0.0
        out[rows] = _weighted_neighbors(w, devs[cols], means[u], cfg.k, train.scale)
        lo = hi
    return out


def knn_predict(
    train: RatingsTable,
    user: int,
    item: int,
    cfg: KnnConfig = KnnConfig(),
    sims: SimilarityMatrix | None = None,
) -> float | None:
    """knn_predict_rows for one rating; None means unpredictable."""
    if user not in train.users:
        raise ValueError(f"user {user} not in train")
    pred = knn_predict_rows(train, np.array([user]), np.array([item]), cfg, sims)[0]
    return None if np.isnan(pred) else float(pred)


# -- matrix factorization ----------------------------------------------


class MfModel:
    """Biased MF model: prediction = mu + b_u + b_i + p_u . q_i, clamped to scale.

    Row k of P and bu belongs to users[k], row k of Q and bi to items[k];
    both id arrays ascend.
    """

    def __init__(
        self,
        users: np.ndarray,
        items: np.ndarray,
        P: np.ndarray,
        Q: np.ndarray,
        bu: np.ndarray,
        bi: np.ndarray,
        global_mean: float,
        scale: Scale,
        rmse_per_epoch: list[float] | None = None,
    ):
        self.users = np.asarray(users, dtype=np.int64)
        self.items = np.asarray(items, dtype=np.int64)
        self.P = P
        self.Q = Q
        self.bu = bu
        self.bi = bi
        self.global_mean = global_mean
        self.scale = scale
        self.rmse_per_epoch = list(rmse_per_epoch or [])

    @property
    def f(self) -> int:
        return self.P.shape[1]


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
    urow = np.searchsorted(users, train.users)
    irow = np.searchsorted(items, train.items)
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


def recommend_topk(model: MfModel, train: RatingsTable, users: np.ndarray, K: int) -> np.ndarray:
    """Top-K unrated item ids per user, by predicted score with ties broken
    by ascending item id: one row per user of the ascending id array users,
    padded with -1 past the user's last unrated item.

    A user's scores are summed as ((mu + b_u) + b_i) + Q p_u, with one
    matrix-vector product per user, and clipped to the scale, so they keep
    the bits a one-user call gives them and ties fall the same way.  Rated
    cells are set to +inf in the negated scores.  A partition per row finds
    its K-th smallest negated score; every cell at or below it is a
    candidate, so items tied with the K-th score all compete, and one sort
    of the candidates by (row, negated score, item id) ranks them, as a
    stable argsort of the whole row would.  Rated items rank last and are
    never listed.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    users = np.asarray(users, dtype=np.int64)
    if np.any(users[1:] <= users[:-1]):
        raise ValueError("users must be ascending and unique")
    rows = sorted_index(model.users, users)
    if np.any(rows == len(model.users)):
        raise ValueError(f"user {users[rows == len(model.users)][0]} unknown to model")
    scores = (model.global_mean + model.bu[rows])[:, None] + model.bi
    for k, r in enumerate(rows.tolist()):
        scores[k] += model.Q @ model.P[r]
    np.clip(scores, model.scale.r_min, model.scale.r_max, out=scores)
    np.negative(scores, out=scores)
    owner = sorted_index(users, train.users)
    col = sorted_index(model.items, train.items)
    rated = (owner < len(users)) & (col < len(model.items))
    scores[owner[rated], col[rated]] = np.inf
    out = np.full((len(users), K), -1, dtype=np.int64)
    kk = min(K, len(model.items))
    if kk == 0:
        return out
    kth = np.partition(scores, kk - 1, axis=1)[:, kk - 1 : kk]
    rows, cols = np.nonzero(scores <= kth)
    neg = scores[rows, cols]
    order = np.lexsort((cols, neg, rows))
    rows, cols, neg = rows[order], cols[order], neg[order]
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
    keep = (rank < kk) & (neg < np.inf)
    out[rows[keep], rank[keep]] = model.items[cols[keep]]
    return out


# -- checkpointing ------------------------------------------------------


def save_model(model: MfModel, path: str | Path) -> None:
    blob = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "f": model.f,
        "global_mean": model.global_mean,
        "scale": [model.scale.r_min, model.scale.r_max],
        "users": model.users.tolist(),
        "items": model.items.tolist(),
        "user_bias": model.bu.tolist(),
        "item_bias": model.bi.tolist(),
        "user_factors": model.P.tolist(),
        "item_factors": model.Q.tolist(),
        "rmse_per_epoch": model.rmse_per_epoch,
    }
    atomic_write_text(path, json.dumps(blob, sort_keys=True) + "\n")
