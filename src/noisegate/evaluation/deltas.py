"""Per-user improvement deltas and their quadrant/plane classification.

Each evaluated user becomes one point: x is the serendipity change and y
the accuracy change for a chosen ranking metric.  A fixed plane
a*x + b*y = 0 separates net-positive from net-negative outcomes, and the
sign pattern of (x, y) places the point in a quadrant.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

from ..ioutil import atomic_write_text, read_columns

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


class DeltaPoint(NamedTuple):
    user_id: int
    cluster: int
    x: float
    y: float
    quadrant: Quadrant
    positive: bool
    boundary: bool


class DeltaReport(NamedTuple):
    pair: str
    metric: str
    plane: tuple[float, float]
    points: tuple[DeltaPoint, ...]
    percent_positive: float
    global_before: dict[str, float]
    global_after: dict[str, float]


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
    points = tuple(
        DeltaPoint(
            user_id=user,
            cluster=cluster,
            x=dx,
            y=dy,
            quadrant=quadrant(dx, dy),
            positive=plane_positive(dx, dy, plane),
            boundary=(dx == 0.0 or dy == 0.0),
        )
        for user, cluster, dx, dy in zip(users.tolist(), labels.tolist(), x.tolist(), y.tolist())
    )
    return DeltaReport(
        pair=f"serendipity-{metric}",
        metric=metric,
        plane=(float(plane[0]), float(plane[1])),
        points=points,
        percent_positive=percent_positive([p.positive for p in points], basis, weights),
        global_before={m: _mean(v) for m, v in before._asdict().items()},
        global_after={m: _mean(v) for m, v in after._asdict().items()},
    )


def write_delta_csv(path: str, points: Iterable[DeltaPoint]) -> None:
    rows = [DELTA_HEADER]
    for p in points:
        rows.append(
            (
                str(p.user_id),
                str(p.cluster),
                repr(float(p.x)),
                repr(float(p.y)),
                p.quadrant.value,
                "true" if p.positive else "false",
            )
        )
    text = "\r\n".join(",".join(row) for row in rows) + "\r\n"
    atomic_write_text(path, text)


# Text cells are read whole, as Python strings.
_DELTA_DTYPE = np.dtype([
    ("user", np.int64), ("cluster", np.int64), ("x", np.float64), ("y", np.float64),
    ("quadrant", object), ("positive", object),
])


def read_delta_csv(path: str) -> list[DeltaPoint]:
    """The points of a delta CSV in file order, read by read_columns."""
    return [
        DeltaPoint(user, cluster, x, y, Quadrant(quadrant), positive == "true", x == 0.0 or y == 0.0)
        for user, cluster, x, y, quadrant, positive in read_columns(
            path, DELTA_HEADER, _DELTA_DTYPE
        ).tolist()
    ]
