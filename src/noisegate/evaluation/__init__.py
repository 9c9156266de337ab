"""Two-dimensional evaluation: group-validated ranking accuracy against
serendipity, with per-user improvement deltas.  ranking_metrics and
serendipity give one arm's arrays (an ArmEval, aligned to the ascending
user ids), delta_points pairs two arms, global_means averages one."""

from .clustering import (
    DEFAULT_K,
    DEFAULT_MAX_ITER,
    ClusterAssignment,
    cluster_users,
)
from .deltas import (
    ACCURACY_METRICS,
    BASIS_RATINGS,
    BASIS_USERS,
    DEFAULT_PLANE,
    DELTA_HEADER,
    QUADRANTS,
    ArmEval,
    DeltaReport,
    Quadrant,
    critical_groups,
    delta_points,
    global_means,
    percent_positive,
    plane_positive,
    quadrant,
    read_delta_csv,
    write_delta_csv,
)
from .metrics import ranking_metrics
from .serendipity import (
    FORMULA_COMPLEMENT,
    FORMULA_PAPER_LITERAL,
    serendipity,
)
from .svg import scatter_svg, write_scatter_svg

__all__ = [
    "ACCURACY_METRICS",
    "BASIS_RATINGS",
    "BASIS_USERS",
    "DEFAULT_K",
    "DEFAULT_MAX_ITER",
    "DEFAULT_PLANE",
    "DELTA_HEADER",
    "QUADRANTS",
    "ArmEval",
    "ClusterAssignment",
    "DeltaReport",
    "FORMULA_COMPLEMENT",
    "FORMULA_PAPER_LITERAL",
    "Quadrant",
    "cluster_users",
    "critical_groups",
    "delta_points",
    "global_means",
    "percent_positive",
    "plane_positive",
    "quadrant",
    "ranking_metrics",
    "read_delta_csv",
    "scatter_svg",
    "serendipity",
    "write_delta_csv",
    "write_scatter_svg",
]
