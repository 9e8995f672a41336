"""Deterministic SVG rendering of foliation slices.

Output is plain hand-assembled SVG: one path per leaf, one path for the
transversal, the ideal boundary drawn along the bottom edge, and nothing
that depends on dict ordering or float formatting quirks, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .foliation import FoliationSlice, leaf_table
from .halfplane import TransversalKind
from .leaves import _half_chord
from .routes_io import template_rows

_SVG_DECIMALS = 3
#: Numbers below this in magnitude print as 0, never as "-0.000".
_ROUNDS_TO_ZERO = 0.5 * 10.0**-_SVG_DECIMALS

_BACKGROUND = "#ffffff"
_BOUNDARY_COLOR = "#1a1a1a"
_TRANSVERSAL_COLOR = "#b03030"
_LEAF_COLOR = "#1f5f8b"
_EXTENSION_COLOR = "#7aa8c4"
_PINNED_DASH = "6,4"
_LEAF_WIDTH = 1.5
_TRANSVERSAL_WIDTH = 2.0
_BOUNDARY_WIDTH = 2.0


@dataclass(frozen=True)
class Viewport:
    """Axis-aligned window [x_min, x_max] x [0, y_max] mapped onto a
    width_px by height_px pixel canvas (y flipped, boundary at the
    bottom edge).  Both pixels-per-unit scales must be finite and
    positive."""

    x_min: float = -3.0
    x_max: float = 3.0
    y_max: float = 3.0
    width_px: int = 800
    height_px: int = 400

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise DomainError(f"empty x range [{self.x_min}, {self.x_max}]")
        if not self.y_max > 0:
            raise DomainError(f"y_max must be positive, got {self.y_max!r}")
        if self.width_px <= 0 or self.height_px <= 0:
            raise DomainError("pixel dimensions must be positive")
        for scale in (self.x_scale, self.y_scale):
            if not 0 < scale < math.inf:
                raise DomainError(f"scale must be finite and positive, got {scale!r}")

    @property
    def x_scale(self) -> float:
        return self.width_px / (self.x_max - self.x_min)

    @property
    def y_scale(self) -> float:
        return self.height_px / self.y_max

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        return (x - self.x_min) * self.x_scale, self.height_px - y * self.y_scale


def _fmt(v: float) -> str:
    """Every SVG number goes through here; a non-finite one is refused."""
    if not math.isfinite(v):
        raise DomainError(f"the figure has a coordinate past the float range, got {v!r}")
    if abs(v) < _ROUNDS_TO_ZERO:
        v = 0.0
    return f"{v:.{_SVG_DECIMALS}f}"


def _transversal_path(slice_: FoliationSlice, vp: Viewport) -> str:
    tr = slice_.transversal
    if tr.kind == TransversalKind.GEODESIC:
        x1, y1 = vp.to_px(0.0, 0.0)
        x2, y2 = vp.to_px(0.0, vp.y_max)
    elif tr.kind == TransversalKind.HYPERCYCLE:
        reach = vp.y_max / math.sin(tr.phi)
        if math.cos(tr.phi) > 0:
            reach = min(reach, max(vp.x_max, 1e-9) / math.cos(tr.phi))
        x1, y1 = vp.to_px(0.0, 0.0)
        x2, y2 = vp.to_px(reach * math.cos(tr.phi), reach * math.sin(tr.phi))
    else:
        x1, y1 = vp.to_px(vp.x_min, tr.height)
        x2, y2 = vp.to_px(vp.x_max, tr.height)
    return f"M {_fmt(x1)},{_fmt(y1)} L {_fmt(x2)},{_fmt(y2)}"


def render_svg(slice_: FoliationSlice, viewport: Viewport | None = None) -> str:
    """Render a slice to an SVG document string.

    Pinned leaves (horospheres and the degenerate line leaves) are dashed,
    extension leaves use a lighter stroke, and the ideal boundary runs
    along the bottom edge of the frame.
    """
    vp = viewport if viewport is not None else Viewport()
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{vp.width_px}" height="{vp.height_px}" '
        f'viewBox="0 0 {vp.width_px} {vp.height_px}">',
        f'<rect class="frame" x="0" y="0" width="{vp.width_px}" '
        f'height="{vp.height_px}" fill="{_BACKGROUND}"/>',
    ]
    bx1, by1 = vp.to_px(vp.x_min, 0.0)
    bx2, by2 = vp.to_px(vp.x_max, 0.0)
    parts.append(
        f'<line class="ideal-boundary" x1="{_fmt(bx1)}" y1="{_fmt(by1)}" '
        f'x2="{_fmt(bx2)}" y2="{_fmt(by2)}" stroke="{_BOUNDARY_COLOR}" '
        f'stroke-width="{_BOUNDARY_WIDTH}"/>'
    )
    parts.append(
        f'<path class="transversal" d="{_transversal_path(slice_, vp)}" '
        f'fill="none" stroke="{_TRANSVERSAL_COLOR}" '
        f'stroke-width="{_TRANSVERSAL_WIDTH}"/>'
    )
    parts += _leaf_paths(slice_, vp)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_DASH = f' stroke-dasharray="{_PINNED_DASH}"'
#: The text around a leaf's path data, by ``extension + 2 * pinned``.
_STYLES = np.array([
    (
        f'<path class="leaf{" extension" * e}{" pinned" * p}" d="',
        f'" fill="none" stroke="{(_LEAF_COLOR, _EXTENSION_COLOR)[e]}" '
        f'stroke-width="{_LEAF_WIDTH}"{_DASH * p}/>',
    )
    for p in (0, 1) for e in (0, 1)
], dtype=object)

_NUM = f"%.{_SVG_DECIMALS}f"
#: Path data by leaf shape, each a template on (before, numbers, after):
#: a circle that cuts the boundary is one arc between its ideal endpoints
#: (the large one when its centre is above the boundary), a tangent
#: circle a closed loop of two half arcs from its lowest point, and a
#: line the segment clipped to the strip 0 <= y <= y_max only, so every
#: line leaf emits exactly one path even when it exits sideways.
#: An arc's two ends lie on the boundary, at the canvas height, which
#: ``_leaf_paths`` writes into the template once (as ``{height}``).
_ARC = f"%sM {_NUM},{{height}} A {_NUM},{_NUM} 0 %d 1 {_NUM},{{height}}%s"
_LOOP = f"%sM {_NUM},{_NUM}{f' A {_NUM},{_NUM} 0 1 1 {_NUM},{_NUM}' * 2} Z%s"
_SEGMENT = f"%sM {_NUM},{_NUM} L {_NUM},{_NUM}%s"


def _leaf_paths(slice_: FoliationSlice, vp: Viewport) -> list[str]:
    """One path per leaf, in row order, from the slice's ``leaf_table``.

    Pixel coordinates are columns, mapped by ``Viewport.to_px``;
    ``_fmt``'s finite and zero rules are applied to them whole, and each
    path is one template call.  Column p of ``v`` holds leaf p's numbers
    in the order ``_fmt`` met them one path at a time, so the first
    non-finite one in that order is refused: rx, ry, then the
    two points of a circle (an arc's ends, or a loop's lowest and highest
    point); a segment's two ends, the second repeated.
    """
    tb = leaf_table(slice_)
    line, root = np.isnan(tb.radius), _half_chord(tb.cy, tb.radius)
    loop, flat = ~line & np.isnan(root), tb.dy == 0.0  # a flat line spans the viewport
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u1, u2 = -tb.y0 / tb.dy, (vp.y_max - tb.y0) / tb.dy
        s1, s2 = (
            vp.to_px(np.where(flat, x, tb.x0 + u * tb.dx), np.where(flat, tb.y0, y))
            for x, u, y in ((vp.x_min, u1, 0.0), (vp.x_max, u2, vp.y_max))
        )
        cx1, cx2 = np.where(loop, tb.cx, tb.cx - root), np.where(loop, tb.cx, tb.cx + root)
        cy1, cy2 = np.where(loop, tb.cy - tb.radius, 0.0), np.where(loop, tb.cy + tb.radius, 0.0)
        radius = (tb.radius * vp.x_scale, tb.radius * vp.y_scale)
        v = np.where(line, [*s1, *s2, *s2], [*radius, *vp.to_px(cx1, cy1), *vp.to_px(cx2, cy2)])
    finite = np.isfinite(v.T)
    if not finite.all():
        _fmt(float(v.T.flat[np.argmin(finite)]))
    v = np.vstack((np.where(np.abs(v) < _ROUNDS_TO_ZERO, 0.0, v), tb.cy > 0))
    bound = slice_.transversal.curvature_bound
    style = _STYLES[slice_.extension + 2 * ((bound > 0) & (bound - np.abs(tb.h) <= 1e-9))]
    arc = _ARC.format(height=_fmt(float(vp.height_px)))
    groups = []
    for rows, template, order in (
        (~line & ~loop, arc, (2, 0, 1, 6, 4)),  # row 6: an arc's large flag
        (loop, _LOOP, (2, 3, 0, 1, 4, 5, 0, 1, 2, 3)),
        (line, _SEGMENT, (0, 1, 2, 3)),
    ):
        rows = np.flatnonzero(rows)
        before, after = style[rows].T
        groups.append((rows, template, (before, *v[np.ix_(order, rows)], after)))
    return template_rows(slice_.t.size, groups)
