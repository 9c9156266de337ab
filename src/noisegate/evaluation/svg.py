"""Deterministic scatter plots for delta points.

Hand-assembled SVG so the bytes depend only on the input points: no
plotting library, no timestamps, fixed decimal formatting.
"""

from __future__ import annotations

import numpy as np

from ..ioutil import atomic_write_text

WIDTH = 640
HEIGHT = 480
MARGIN = 48

POSITIVE_COLOR = "#2166ac"
NEGATIVE_COLOR = "#b2182b"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _span(values: np.ndarray) -> float:
    # Symmetric bounds around the origin keep all four quadrants visible.
    return max(float(np.max(np.abs(values), initial=0.0)), 1e-3) * 1.1


def scatter_svg(
    x: np.ndarray,
    y: np.ndarray,
    positive: np.ndarray,
    plane: tuple[float, float],
    title: str,
    x_label: str = "delta serendipity",
    y_label: str = "delta accuracy",
) -> str:
    """The points (x[k], y[k]) in the order given, colored by positive[k],
    over the axes, the plane a*x + b*y = 0 and the quadrant labels."""
    span_x, span_y = _span(x), _span(y)
    inner_w = WIDTH - 2 * MARGIN
    inner_h = HEIGHT - 2 * MARGIN

    def sx(v: float) -> float:
        return MARGIN + (v + span_x) / (2 * span_x) * inner_w

    def sy(v: float) -> float:
        return HEIGHT - MARGIN - (v + span_y) / (2 * span_y) * inner_h

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    parts.append(
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>'
    )
    # Axes through the origin.
    parts.append(
        f'<line x1="{_fmt(sx(-span_x))}" y1="{_fmt(sy(0))}" x2="{_fmt(sx(span_x))}" '
        f'y2="{_fmt(sy(0))}" stroke="#999" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(sx(0))}" y1="{_fmt(sy(-span_y))}" x2="{_fmt(sx(0))}" '
        f'y2="{_fmt(sy(span_y))}" stroke="#999" stroke-width="1"/>'
    )
    # Threshold line a*x + b*y = 0 clipped to the data bounds.
    a, b = plane
    if b != 0.0:
        slope = -a / b
        candidates = []
        y_at_left = slope * -span_x
        y_at_right = slope * span_x
        if abs(y_at_left) <= span_y:
            candidates.append((-span_x, y_at_left))
        if abs(y_at_right) <= span_y:
            candidates.append((span_x, y_at_right))
        if slope != 0.0:
            x_at_bottom = -span_y / slope
            x_at_top = span_y / slope
            if abs(x_at_bottom) <= span_x:
                candidates.append((x_at_bottom, -span_y))
            if abs(x_at_top) <= span_x:
                candidates.append((x_at_top, span_y))
        uniq = sorted(set(candidates))
        if len(uniq) >= 2:
            (x1, y1), (x2, y2) = uniq[0], uniq[-1]
            parts.append(
                f'<line x1="{_fmt(sx(x1))}" y1="{_fmt(sy(y1))}" x2="{_fmt(sx(x2))}" '
                f'y2="{_fmt(sy(y2))}" stroke="#333" stroke-width="1.5" '
                f'stroke-dasharray="6,4"/>'
            )
    else:
        parts.append(
            f'<line x1="{_fmt(sx(0))}" y1="{_fmt(sy(-span_y))}" x2="{_fmt(sx(0))}" '
            f'y2="{_fmt(sy(span_y))}" stroke="#333" stroke-width="1.5" '
            f'stroke-dasharray="6,4"/>'
        )
    # Quadrant labels at the corners.
    for label, qx, qy in (
        ("I", span_x * 0.9, span_y * 0.9),
        ("II", -span_x * 0.9, span_y * 0.9),
        ("III", -span_x * 0.9, -span_y * 0.9),
        ("IV", span_x * 0.9, -span_y * 0.9),
    ):
        parts.append(
            f'<text x="{_fmt(sx(qx))}" y="{_fmt(sy(qy))}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14" fill="#666">{label}</text>'
        )
    # Axis labels.
    parts.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{HEIGHT // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {HEIGHT // 2})">{y_label}</text>'
    )
    # Points, in the order given.
    for px, py, up in zip(x.tolist(), y.tolist(), positive.tolist()):
        color = POSITIVE_COLOR if up else NEGATIVE_COLOR
        parts.append(
            f'<circle cx="{_fmt(sx(px))}" cy="{_fmt(sy(py))}" r="3" '
            f'fill="{color}" fill-opacity="0.7"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_scatter_svg(
    path: str,
    x: np.ndarray,
    y: np.ndarray,
    positive: np.ndarray,
    plane: tuple[float, float],
    title: str,
) -> None:
    atomic_write_text(path, scatter_svg(x, y, positive, plane, title))
