"""Deterministic SVG rendering of foliation slices.

Output is plain hand-assembled SVG: one path per leaf, one path for the
transversal, the ideal boundary drawn along the bottom edge, and nothing
that depends on dict ordering or float formatting quirks, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .foliation import FoliationSlice
from .halfplane import TransversalKind
from .leaves import Circle, Leaf, Line

_SVG_DECIMALS = 3

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
    bottom edge)."""

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

    @property
    def x_scale(self) -> float:
        return self.width_px / (self.x_max - self.x_min)

    @property
    def y_scale(self) -> float:
        return self.height_px / self.y_max

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        return (x - self.x_min) * self.x_scale, self.height_px - y * self.y_scale


def _fmt(v: float) -> str:
    if abs(v) < 0.5 * 10.0**-_SVG_DECIMALS:
        v = 0.0  # avoid "-0.000"
    return f"{v:.{_SVG_DECIMALS}f}"


def _circle_path(c: Circle, vp: Viewport) -> str:
    disc = c.radius * c.radius - c.cy * c.cy
    rx = _fmt(c.radius * vp.x_scale)
    ry = _fmt(c.radius * vp.y_scale)
    if disc <= 0.0:
        # Tangent to the boundary: draw the full circle as two half arcs.
        bx, by = vp.to_px(c.cx, c.cy - c.radius)
        tx, ty = vp.to_px(c.cx, c.cy + c.radius)
        return (
            f"M {_fmt(bx)},{_fmt(by)}"
            f" A {rx},{ry} 0 1 1 {_fmt(tx)},{_fmt(ty)}"
            f" A {rx},{ry} 0 1 1 {_fmt(bx)},{_fmt(by)} Z"
        )
    root = math.sqrt(disc)
    x1, y1 = vp.to_px(c.cx - root, 0.0)
    x2, y2 = vp.to_px(c.cx + root, 0.0)
    large = 1 if c.cy > 0 else 0
    return (
        f"M {_fmt(x1)},{_fmt(y1)}"
        f" A {rx},{ry} 0 {large} 1 {_fmt(x2)},{_fmt(y2)}"
    )


def _line_path(ln: Line, vp: Viewport) -> str:
    if ln.dy == 0.0:
        x1, y1 = vp.to_px(vp.x_min, ln.y0)
        x2, y2 = vp.to_px(vp.x_max, ln.y0)
    else:
        # Clip against the horizontal strip 0 <= y <= y_max only, so every
        # line leaf emits exactly one path even when it exits sideways.
        u0 = -ln.y0 / ln.dy
        u1 = (vp.y_max - ln.y0) / ln.dy
        x1, y1 = vp.to_px(ln.x0 + u0 * ln.dx, 0.0)
        x2, y2 = vp.to_px(ln.x0 + u1 * ln.dx, vp.y_max)
    return f"M {_fmt(x1)},{_fmt(y1)} L {_fmt(x2)},{_fmt(y2)}"


def _leaf_path(leaf: Leaf, vp: Viewport) -> str:
    if isinstance(leaf.shape, Circle):
        return _circle_path(leaf.shape, vp)
    return _line_path(leaf.shape, vp)


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
    bound = slice_.transversal.curvature_bound

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
    for _, leaf, is_ext in slice_.all_entries():
        classes = "leaf"
        color = _LEAF_COLOR
        if is_ext:
            classes += " extension"
            color = _EXTENSION_COLOR
        dash = ""
        if bound > 0 and bound - abs(leaf.h) <= 1e-9:
            classes += " pinned"
            dash = f' stroke-dasharray="{_PINNED_DASH}"'
        parts.append(
            f'<path class="{classes}" d="{_leaf_path(leaf, vp)}" fill="none" '
            f'stroke="{color}" stroke-width="{_LEAF_WIDTH}"{dash}/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
