"""The scatter SVG's bytes, pinned by sha256 on three small delta reports."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from noisegate.evaluation.deltas import DEFAULT_PLANE, ArmEval, delta_points
from noisegate.evaluation.svg import scatter_svg


def _report(serendipity, ndcg, plane):
    """delta_points of users 1..n whose after arm moves by (serendipity, ndcg)."""
    n = len(ndcg)
    before = ArmEval(*(np.full(n, 0.5) for _ in ArmEval._fields))
    after = before._replace(
        serendipity=0.5 + np.array(serendipity, dtype=np.float64),
        ndcg=0.5 + np.array(ndcg, dtype=np.float64),
    )
    users = np.arange(1, n + 1, dtype=np.int64)
    return delta_points(users, np.zeros(n, dtype=np.int64), before, after, "ndcg", plane)


# x = 0 on user 1, and one point in each quadrant, the origin included
_SERENDIPITY = [0.0, -0.125, -0.0625, 0.25, 0.0, 0.375]
_NDCG = [0.0625, 0.25, -0.1875, -0.125, 0.0, 0.03125]


@pytest.mark.parametrize(
    "serendipity, ndcg, plane, digest",
    [
        (_SERENDIPITY, _NDCG, DEFAULT_PLANE,
         "97a3af45b38171ab0b34169ab727d45be9af3d59348a4d314ff7c46127298449"),
        (_SERENDIPITY, _NDCG, (0.07, 0.0),
         "2f59ce82901772471273f2457b3651d0ff8084c24308a88b3e35f560f4a5c1cc"),
        ([], [], DEFAULT_PLANE,
         "4a899f7448d9a4587be3063c9bde939095c800cc27e0ac2c08d0b022bd339032"),
    ],
    ids=["four-quadrants", "vertical-plane", "empty"],
)
def test_scatter_svg_bytes_are_pinned(serendipity, ndcg, plane, digest):
    report = _report(serendipity, ndcg, plane)
    svg = scatter_svg(report.x, report.y, report.positive, plane, report.pair)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest
