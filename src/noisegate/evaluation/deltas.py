"""Per-user improvement deltas and their quadrant/plane classification.

Each evaluated user becomes one point: x is the serendipity change and y
the accuracy change for a chosen ranking metric.  A fixed plane
a*x + b*y = 0 separates net-positive from net-negative outcomes, and the
sign pattern of (x, y) places the point in a quadrant.
"""

from __future__ import annotations

import csv
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

from ..ioutil import atomic_write_text

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


class UserEval(NamedTuple):
    """Per-user evaluation snapshot for one arm of a comparison."""

    user_id: int
    ndcg: float
    precision: float
    recall: float
    f1: float
    serendipity: float
    cluster: int


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


def critical_groups(cluster_metrics: Mapping[int, float]) -> float:
    """Percentage of clusters whose mean accuracy falls strictly below
    the cross-cluster mean."""
    if not cluster_metrics:
        raise ValueError("critical_groups requires at least one cluster")
    values = list(cluster_metrics.values())
    mean = sum(values) / len(values)
    below = sum(1 for v in values if v < mean)
    return 100.0 * below / len(values)


def _global_means(evals: Sequence[UserEval]) -> dict[str, float]:
    n = len(evals)
    if n == 0:
        return {m: 0.0 for m in (*ACCURACY_METRICS, "serendipity")}
    out: dict[str, float] = {}
    for m in (*ACCURACY_METRICS, "serendipity"):
        out[m] = sum(getattr(e, m) for e in evals) / n
    return out


def _cluster_ndcg_means(evals: Sequence[UserEval]) -> dict[int, float]:
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for e in evals:
        sums[e.cluster] = sums.get(e.cluster, 0.0) + e.ndcg
        counts[e.cluster] = counts.get(e.cluster, 0) + 1
    return {c: sums[c] / counts[c] for c in sorted(sums)}


def percent_positive(
    points: Sequence[DeltaPoint],
    basis: str = BASIS_USERS,
    weights: Mapping[int, int] | None = None,
) -> float:
    """Share of points above the plane, either one vote per user or one
    vote per rating (weighted by the user's rating count)."""
    if basis not in (BASIS_USERS, BASIS_RATINGS):
        raise ValueError(f"unknown percent_positive basis {basis!r}")
    if not points:
        return 0.0
    if basis == BASIS_USERS:
        return 100.0 * sum(1 for p in points if p.positive) / len(points)
    if weights is None:
        raise ValueError("ratings basis requires per-user rating counts")
    total = sum(weights.get(p.user_id, 0) for p in points)
    if total == 0:
        return 0.0
    hit = sum(weights.get(p.user_id, 0) for p in points if p.positive)
    return 100.0 * hit / total


def delta_points(
    before: Sequence[UserEval],
    after: Sequence[UserEval],
    metric: str = "ndcg",
    plane: tuple[float, float] = DEFAULT_PLANE,
    basis: str = BASIS_USERS,
    weights: Mapping[int, int] | None = None,
) -> DeltaReport:
    """Pair up per-user evaluations from two arms and classify each delta.

    Both arms must cover exactly the same users; callers drop users the
    cleaning stage removed before evaluating, and account for them
    separately.  The cluster id reported per point is the one from the
    `before` arm, which both arms share when clustering runs once on the
    reference model.
    """
    if metric not in ACCURACY_METRICS:
        raise ValueError(f"metric must be one of {ACCURACY_METRICS}, got {metric!r}")
    before_map = {e.user_id: e for e in before}
    after_map = {e.user_id: e for e in after}
    if len(before_map) != len(before) or len(after_map) != len(after):
        raise ValueError("duplicate user ids in evaluation lists")
    missing = sorted(set(before_map) - set(after_map))
    extra = sorted(set(after_map) - set(before_map))
    if missing or extra:
        raise ValueError(
            f"user universes differ: only-before={missing[:20]}, only-after={extra[:20]}"
        )
    points: list[DeltaPoint] = []
    for user in sorted(before_map):
        b = before_map[user]
        a = after_map[user]
        x = a.serendipity - b.serendipity
        y = getattr(a, metric) - getattr(b, metric)
        points.append(
            DeltaPoint(
                user_id=user,
                cluster=b.cluster,
                x=x,
                y=y,
                quadrant=quadrant(x, y),
                positive=plane_positive(x, y, plane),
                boundary=(x == 0.0 or y == 0.0),
            )
        )
    report = DeltaReport(
        pair=f"serendipity-{metric}",
        metric=metric,
        plane=(float(plane[0]), float(plane[1])),
        points=tuple(points),
        percent_positive=percent_positive(points, basis=basis, weights=weights),
        global_before=_global_means(before),
        global_after=_global_means(after),
    )
    return report


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


def read_delta_csv(path: str) -> list[DeltaPoint]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != DELTA_HEADER:
            raise ValueError(f"unexpected delta CSV header: {header}")
        out: list[DeltaPoint] = []
        for row in reader:
            x = float(row[2])
            y = float(row[3])
            out.append(
                DeltaPoint(
                    user_id=int(row[0]),
                    cluster=int(row[1]),
                    x=x,
                    y=y,
                    quadrant=Quadrant(row[4]),
                    positive=row[5] == "true",
                    boundary=(x == 0.0 or y == 0.0),
                )
            )
        return out
