"""SVG rendering of utility-range geometry (d = 3 only).

The paper explains its geometry with pictures of the 3-attribute utility
simplex (Figures 2-5: the triangle, learned hyper-planes, the shrinking
yellow range, inner/outer spheres).  This module draws the same pictures
for *your* session: the simplex, the current utility range, its learned
half-space boundaries, sampled vectors and the hidden truth — as a
standalone SVG string with no plotting dependency.

Coordinates: a 3-d utility vector ``u`` lies on the plane ``sum(u) = 1``;
we draw its barycentric embedding into the page triangle with corners
``e1`` (bottom-left), ``e2`` (bottom-right), ``e3`` (top).
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.errors import GeometryError
from repro.geometry.range import ExactRange
from repro.utils.validation import require_vector

_WIDTH = 480
_HEIGHT = 440
_MARGIN = 40

#: Page positions of the simplex corners e1, e2, e3.
_CORNERS = np.array(
    [
        [_MARGIN, _HEIGHT - _MARGIN],
        [_WIDTH - _MARGIN, _HEIGHT - _MARGIN],
        [_WIDTH / 2, _MARGIN],
    ]
)


def barycentric_to_page(u: np.ndarray) -> tuple[float, float]:
    """Map a 3-d utility vector to page coordinates.

    >>> x, y = barycentric_to_page(np.array([1.0, 0.0, 0.0]))
    >>> (round(x), round(y))
    (40, 400)
    """
    u = require_vector(u, "u", size=3)
    total = float(u.sum())
    if total <= 0:
        raise GeometryError("cannot project a non-positive utility vector")
    weights = u / total
    point = weights @ _CORNERS
    return float(point[0]), float(point[1])


def _polygon(points: Sequence[tuple[float, float]], fill: str,
             stroke: str, opacity: float = 1.0) -> str:
    coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    return (
        f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}" '
        f'stroke-width="1.5" fill-opacity="{opacity}"/>'
    )


def _circle(x: float, y: float, radius: float, fill: str) -> str:
    return f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{radius:.1f}" fill="{fill}"/>'


def _text(x: float, y: float, content: str) -> str:
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-family="monospace" '
        f'font-size="13">{content}</text>'
    )


def _ordered_hull(points_2d: np.ndarray) -> np.ndarray:
    """Order planar points counter-clockwise around their centroid."""
    centroid = points_2d.mean(axis=0)
    angles = np.arctan2(
        points_2d[:, 1] - centroid[1], points_2d[:, 0] - centroid[0]
    )
    return points_2d[np.argsort(angles)]


def render_range(
    urange: ExactRange,
    samples: np.ndarray | None = None,
    truth: np.ndarray | None = None,
    title: str = "utility range",
) -> str:
    """Render a 3-d utility range as an SVG string.

    Draws the simplex outline, the current range as a filled polygon
    (from its enumerated vertices), optional sampled utility vectors and
    the optional hidden truth vector.

    Raises
    ------
    GeometryError
        If the range is not 3-dimensional.
    """
    if urange.dimension != 3:
        raise GeometryError(
            f"SVG rendering supports d = 3 only, got d = {urange.dimension}"
        )
    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        _polygon(
            [tuple(corner) for corner in _CORNERS],
            fill="none", stroke="#444444",
        ),
        _text(_CORNERS[0][0] - 18, _CORNERS[0][1] + 18, "e1"),
        _text(_CORNERS[1][0] + 4, _CORNERS[1][1] + 18, "e2"),
        _text(_CORNERS[2][0] - 8, _CORNERS[2][1] - 8, "e3"),
        _text(_MARGIN, 20, title),
    ]
    page = np.array([barycentric_to_page(v) for v in urange.vertices()])
    if page.shape[0] >= 3:
        ordered = _ordered_hull(page)
        parts.append(
            _polygon(
                [tuple(p) for p in ordered],
                fill="#f5c542", stroke="#b38600", opacity=0.55,
            )
        )
    elif page.shape[0] == 2:
        (x1, y1), (x2, y2) = page
        parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
            f'y2="{y2:.1f}" stroke="#b38600" stroke-width="3"/>'
        )
    else:
        parts.append(_circle(page[0][0], page[0][1], 4, "#b38600"))
    if samples is not None:
        for sample in np.atleast_2d(samples):
            x, y = barycentric_to_page(np.asarray(sample))
            parts.append(_circle(x, y, 1.6, "#3366cc"))
    if truth is not None:
        x, y = barycentric_to_page(np.asarray(truth))
        parts.append(_circle(x, y, 5.0, "#cc3333"))
        parts.append(_text(x + 8, y - 6, "u*"))
    parts.append("</svg>")
    return "\n".join(parts)


def save_range_svg(
    urange: ExactRange,
    path: str | Path,
    samples: np.ndarray | None = None,
    truth: np.ndarray | None = None,
    title: str = "utility range",
) -> Path:
    """Render and write the SVG to ``path`` (returns the path)."""
    path = Path(path)
    path.write_text(
        render_range(urange, samples=samples, truth=truth, title=title)
    )
    return path
