"""Per-user improvement deltas and their quadrant/plane classification.

Each evaluated user becomes one point: x is the serendipity change and y
the accuracy change for a chosen ranking metric.  A fixed plane
a*x + b*y = 0 separates net-positive from net-negative outcomes, and the
sign pattern of (x, y) places the point in a quadrant.  A DeltaReport
holds the points of one metric pair; the plane it was classified by is
the caller's, and the means over all users are global_means of each arm.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..ioutil import atomic_write_columns, read_columns, row_error

DEFAULT_PLANE = (0.07, 0.17)

ACCURACY_METRICS = ("ndcg", "precision", "recall", "f1")

DELTA_HEADER = ("userId", "cluster", "dSerendipity", "dMetric", "quadrant", "positive")

BASIS_USERS = "users"
BASIS_RATINGS = "ratings"


class Quadrant(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    ORIGIN = "Origin"


class ArmEval(NamedTuple):
    """One arm of a comparison: each metric as an array aligned to the
    ascending ids of the evaluated users."""

    ndcg: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    serendipity: np.ndarray


# DeltaReport.quadrant holds each point's quadrant as an int8 index into QUADRANTS.
QUADRANTS = tuple(Quadrant)
# QUADRANTS code by 2 * (x >= 0) + (y >= 0): III, II, IV, I.
_BY_SIGNS = np.array([2, 1, 3, 0], dtype=np.int8)


class DeltaReport(NamedTuple):
    """Each evaluated user's change as one point, every per-point field an
    array aligned to the ascending user ids."""

    pair: str
    users: np.ndarray
    clusters: np.ndarray
    x: np.ndarray
    y: np.ndarray
    quadrant: np.ndarray
    positive: np.ndarray
    percent_positive: float

    @property
    def boundary(self) -> np.ndarray:
        """Points with a zero coordinate."""
        return (self.x == 0.0) | (self.y == 0.0)


def quadrant(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """QUADRANTS code of each point (x[k], y[k]) from the signs of its coordinates.

    Zero coordinates take the positive-sign convention, except the exact
    origin which gets its own label.
    """
    x, y = np.asarray(x), np.asarray(y)
    codes = _BY_SIGNS[2 * (x >= 0.0) + (y >= 0.0)]
    origin = QUADRANTS.index(Quadrant.ORIGIN)
    return np.where((x == 0.0) & (y == 0.0), origin, codes).astype(np.int8)


def plane_positive(x: float, y: float, plane: tuple[float, float] = DEFAULT_PLANE) -> bool:
    """True iff the point lies strictly above the plane a*x + b*y = 0.

    The sign is exact, in integers over a common denominator: in floats a
    product such as 0.07 * 5e-324 underflows, and rescaling (a, b) could
    flip the answer."""
    (na, da), (nb, db), (nx, dx), (ny, dy) = (float(v).as_integer_ratio() for v in (*plane, x, y))
    return na * nx * db * dy + nb * ny * da * dx > 0


def _mean(values: np.ndarray) -> float:
    """Mean summed left to right, as a sequential sum would; 0 when empty."""
    return float(np.cumsum(values)[-1] / len(values)) if len(values) else 0.0


def global_means(arm: ArmEval) -> dict[str, float]:
    """Each metric's mean over the arm's users, keyed by ArmEval field."""
    return {m: _mean(v) for m, v in arm._asdict().items()}


def critical_groups(labels: np.ndarray, values: np.ndarray) -> float:
    """Percentage of clusters whose mean value falls strictly below the
    mean of the cluster means.  labels[i] is user i's cluster; clusters
    without members do not count."""
    counts = np.bincount(labels)
    present = counts > 0
    if not present.any():
        raise ValueError("critical_groups requires at least one cluster")
    means = np.bincount(labels, weights=values)[present] / counts[present]
    return 100.0 * int(np.count_nonzero(means < _mean(means))) / len(means)


def percent_positive(
    positive: np.ndarray,
    basis: str = BASIS_USERS,
    weights: np.ndarray | None = None,
) -> float:
    """Share of points above the plane, either one vote per user or one
    vote per rating (weighted by the user's rating count, aligned to positive)."""
    if basis not in (BASIS_USERS, BASIS_RATINGS):
        raise ValueError(f"unknown percent_positive basis {basis!r}")
    positive = np.asarray(positive, dtype=bool)
    if len(positive) == 0:
        return 0.0
    if basis == BASIS_USERS:
        return 100.0 * int(np.count_nonzero(positive)) / len(positive)
    if weights is None:
        raise ValueError("ratings basis requires per-user rating counts")
    weights = np.asarray(weights)
    total = int(np.sum(weights))
    if total == 0:
        return 0.0
    return 100.0 * int(np.sum(weights[positive])) / total


def delta_points(
    users: np.ndarray,
    labels: np.ndarray,
    before: ArmEval,
    after: ArmEval,
    metric: str = "ndcg",
    plane: tuple[float, float] = DEFAULT_PLANE,
    basis: str = BASIS_USERS,
    weights: np.ndarray | None = None,
) -> DeltaReport:
    """Classify each user's change from the before arm to the after arm.

    users are the ascending ids both arms were evaluated on, labels their
    clusters (one clustering, on the reference model, serves both arms) and
    weights their rating counts for the ratings basis; callers drop users
    the cleaning stage removed before evaluating, and account for them
    separately.
    """
    if metric not in ACCURACY_METRICS:
        raise ValueError(f"metric must be one of {ACCURACY_METRICS}, got {metric!r}")
    x = after.serendipity - before.serendipity
    y = getattr(after, metric) - getattr(before, metric)
    positive = np.array(
        [plane_positive(dx, dy, plane) for dx, dy in zip(x.tolist(), y.tolist())], dtype=bool
    )
    return DeltaReport(
        pair=f"serendipity-{metric}",
        users=users,
        clusters=labels,
        x=x,
        y=y,
        quadrant=quadrant(x, y),
        positive=positive,
        percent_positive=percent_positive(positive, basis, weights),
    )


_QUADRANT_CELLS = np.array([q.value for q in QUADRANTS], dtype=object)  # by QUADRANTS code
_POSITIVE_CELLS = np.array(["false", "true"], dtype=object)  # by positive flag


def write_delta_csv(path: str | Path, report: DeltaReport) -> None:
    atomic_write_columns(path, DELTA_HEADER, (
        report.users, report.clusters, report.x, report.y,
        _QUADRANT_CELLS[report.quadrant], _POSITIVE_CELLS[report.positive.astype(np.intp)],
    ))


# Text cells are read wider than any valid one, so a longer cell cannot be cut down to one.
_DELTA_DTYPE = np.dtype([
    ("user", np.int64), ("cluster", np.int64), ("x", np.float64), ("y", np.float64),
    ("quadrant", "U16"), ("positive", "U16"),
])


def read_delta_csv(path: str | Path) -> tuple[np.ndarray, ...]:
    """(users, clusters, x, y, quadrant codes, positive flags) of a delta CSV
    in file order, read by read_columns, whose ValueError names a row that
    does not parse.  The first row whose quadrant is not a Quadrant value,
    or whose positive cell is not true or false, raises ValueError with its
    line (row_error)."""
    rows = read_columns(path, DELTA_HEADER, _DELTA_DTYPE)
    match = rows["quadrant"][:, None] == _QUADRANT_CELLS
    positive = rows["positive"] == "true"
    bad = ~match.any(axis=1) | (~positive & (rows["positive"] != "false"))
    if bad.any():
        k = int(np.argmax(bad))
        cells = (str(rows["quadrant"][k]), str(rows["positive"][k]))
        raise row_error(path, k, f"{cells} are not a Quadrant value and true or false")
    columns = (np.ascontiguousarray(rows[name]) for name in ("user", "cluster", "x", "y"))
    return (*columns, np.argmax(match, axis=1).astype(np.int8), positive)
