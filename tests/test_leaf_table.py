"""The columnar leaf writers against their per-leaf references.

``render_svg`` draws and ``umbilic leaves`` lists a slice's leaves from
``foliation.leaf_table``, one template call per leaf.  Their text, and
the error a refused slice raises, must equal what the code below gives:
the per-``Leaf`` path builders and row loop the package used before it had
the leaf table, run on the leaves ``FoliationSlice.all_entries`` builds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from umbilic.cli import _leaf_rows
from umbilic.errors import GeometryError
from umbilic.foliation import FoliationSlice, builtin_route, extend_slice, synthesize
from umbilic.halfplane import Transversal
from umbilic.leaves import Circle, IdealEndpoints, Leaf, Line, ideal_endpoints
from umbilic.render import Viewport, _fmt, _transversal_path, render_svg


def reference_half_chord(c: Circle) -> float | None:
    r, cy = c.radius, abs(c.cy)
    if r <= cy:
        return None
    e = math.frexp(r)[1]
    r, cy = math.ldexp(r, -e), math.ldexp(cy, -e)
    return math.ldexp(math.sqrt((r - cy) * (r + cy)), e)


def reference_ideal_endpoints(leaf: Leaf) -> IdealEndpoints:
    s = leaf.shape
    if isinstance(s, Circle):
        root = reference_half_chord(s)
        if root is None:
            return IdealEndpoints(s.cx, s.cx)
        return IdealEndpoints(s.cx - root, s.cx + root)
    if s.dy == 0.0:
        return IdealEndpoints(-math.inf, math.inf)
    crossing = s.x0 - s.y0 * s.dx / s.dy
    if s.dx < 0:
        return IdealEndpoints(-math.inf, crossing)
    return IdealEndpoints(crossing, math.inf)


def reference_circle_path(c: Circle, vp: Viewport) -> str:
    root = reference_half_chord(c)
    rx = _fmt(c.radius * vp.x_scale)
    ry = _fmt(c.radius * vp.y_scale)
    if root is None:
        bx, by = vp.to_px(c.cx, c.cy - c.radius)
        tx, ty = vp.to_px(c.cx, c.cy + c.radius)
        return (
            f"M {_fmt(bx)},{_fmt(by)}"
            f" A {rx},{ry} 0 1 1 {_fmt(tx)},{_fmt(ty)}"
            f" A {rx},{ry} 0 1 1 {_fmt(bx)},{_fmt(by)} Z"
        )
    x1, y1 = vp.to_px(c.cx - root, 0.0)
    x2, y2 = vp.to_px(c.cx + root, 0.0)
    large = 1 if c.cy > 0 else 0
    return f"M {_fmt(x1)},{_fmt(y1)} A {rx},{ry} 0 {large} 1 {_fmt(x2)},{_fmt(y2)}"


def reference_line_path(ln: Line, vp: Viewport) -> str:
    if ln.dy == 0.0:
        x1, y1 = vp.to_px(vp.x_min, ln.y0)
        x2, y2 = vp.to_px(vp.x_max, ln.y0)
    else:
        u0 = -ln.y0 / ln.dy
        u1 = (vp.y_max - ln.y0) / ln.dy
        x1, y1 = vp.to_px(ln.x0 + u0 * ln.dx, 0.0)
        x2, y2 = vp.to_px(ln.x0 + u1 * ln.dx, vp.y_max)
    return f"M {_fmt(x1)},{_fmt(y1)} L {_fmt(x2)},{_fmt(y2)}"


def reference_render_svg(slice_: FoliationSlice, vp: Viewport) -> str:
    bound = slice_.transversal.curvature_bound
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{vp.width_px}" height="{vp.height_px}" '
        f'viewBox="0 0 {vp.width_px} {vp.height_px}">',
        f'<rect class="frame" x="0" y="0" width="{vp.width_px}" '
        f'height="{vp.height_px}" fill="#ffffff"/>',
    ]
    bx1, by1 = vp.to_px(vp.x_min, 0.0)
    bx2, by2 = vp.to_px(vp.x_max, 0.0)
    parts.append(
        f'<line class="ideal-boundary" x1="{_fmt(bx1)}" y1="{_fmt(by1)}" '
        f'x2="{_fmt(bx2)}" y2="{_fmt(by2)}" stroke="#1a1a1a" stroke-width="2.0"/>'
    )
    parts.append(
        f'<path class="transversal" d="{_transversal_path(slice_, vp)}" '
        f'fill="none" stroke="#b03030" stroke-width="2.0"/>'
    )
    for _, leaf, is_ext in slice_.all_entries():
        classes, color = "leaf", "#1f5f8b"
        if is_ext:
            classes, color = classes + " extension", "#7aa8c4"
        dash = ""
        if bound > 0 and bound - abs(leaf.h) <= 1e-9:
            classes += " pinned"
            dash = ' stroke-dasharray="6,4"'
        if isinstance(leaf.shape, Circle):
            path = reference_circle_path(leaf.shape, vp)
        else:
            path = reference_line_path(leaf.shape, vp)
        parts.append(
            f'<path class="{classes}" d="{path}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"{dash}/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def reference_leaf_rows(slice_: FoliationSlice) -> list[str]:
    rows = []
    for i, (t, leaf, ext) in enumerate(slice_.all_entries()):
        ends = reference_ideal_endpoints(leaf)
        s = leaf.shape
        if isinstance(s, Circle):
            shape = f"circle {s.cx:.12g} {s.cy:.12g} {s.radius:.12g}"
        else:
            shape = f"line {s.x0:.12g} {s.y0:.12g} {s.dx:.12g} {s.dy:.12g}"
        rows.append(
            f"{i}\t{t:.12g}\t{leaf.kind.value}\t{leaf.beta:.12g}\t"
            f"{leaf.h:.12g}\t{int(ext)}\t{shape}\t{ends.a_minus:.12g}\t"
            f"{ends.a_plus:.12g}"
        )
    return rows


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except (GeometryError, OverflowError) as exc:
        return "error", type(exc).__name__, str(exc)


def assert_writers_agree(slice_, vp):
    assert _outcome(_leaf_rows, slice_) == _outcome(reference_leaf_rows, slice_)
    assert _outcome(render_svg, slice_, vp) == _outcome(reference_render_svg, slice_, vp)


#: Ray angles near 0 and pi/2, where the band is narrowest or the lines
#: steepest, and a few between.
PHIS = [1e-9, 1e-4, 0.05, 0.3, 0.9, 1.3, math.pi / 2 - 1e-4, math.pi / 2 - 1e-7, 1.5707963267948963]


@st.composite
def transversals(draw):
    kind = draw(st.sampled_from(["geodesic", "hypercycle", "horocycle"]))
    if kind == "geodesic":
        return Transversal.geodesic()
    if kind == "hypercycle":
        return Transversal.hypercycle(draw(st.one_of(st.sampled_from(PHIS), st.floats(0.01, 1.56))))
    return Transversal.horocycle(draw(st.sampled_from([1e-300, 0.5, 1.0, 3.0, 1e300])))


@st.composite
def slices(draw):
    """Rows in the transversal's band, or on a third of the geodesic and
    hypercycle draws anywhere in [-1, 1]: pins at +-bound (lines at
    +bound), h = 0 (horocycle lines), levels within 1e-12 of the bound
    (steep lines the constructors refuse near phi = pi/2), and the rest
    uniform; t mostly moderate, sometimes where e^(t L) leaves the float
    range."""
    tr = draw(transversals())
    n = draw(st.integers(0, 12))
    bound = tr.curvature_bound if tr.phi is not None or tr.height is None else 1.0
    near = [bound - 5e-13, -bound + 5e-13, bound - 1e-12, -bound + 1e-12]
    level = st.one_of(
        st.sampled_from([bound, -bound, 0.0, -1.0, 1.0, *near]),
        st.floats(-bound, bound),
        st.floats(-1.0, 1.0),
    )
    if tr.height is not None or draw(st.integers(0, 2)) > 0:
        level = level.map(lambda x: min(max(x, -bound), bound))
    t_value = st.one_of(
        st.floats(-6.0, 6.0),
        st.sampled_from([-800.0, -745.5, 706.0, 709.0, 709.9, 1e300]),
    )
    t = sorted(draw(st.lists(t_value, min_size=n, max_size=n)))
    h = draw(st.lists(level, min_size=n, max_size=n))
    if tr.height is not None:  # a horocycle carries lines (h = 0) and circles (-1 <= h < 0)
        h = [-abs(x) for x in h]
    ext = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return FoliationSlice(tr, t, h, ext)


#: Viewport corners where a coordinate lands within a rounding of 0: the
#: axis, the pencil's endpoints -1 and 1, and tiny offsets from them.
CORNERS = [-3.0, -1.0, 0.0, 1.0, 3.0, -1e-6, 1e-6, -1.0 - 1e-7, 1.0 + 1e-7, 2.9999999]


@st.composite
def viewports(draw):
    x_min = draw(st.one_of(st.sampled_from(CORNERS), st.floats(-10.0, 10.0)))
    span = draw(st.one_of(st.sampled_from([6.0, 2.0, 1e-6]), st.floats(1e-3, 100.0)))
    y_max = draw(st.one_of(st.sampled_from([3.0, 1.0, 1.0 + 1e-7, 1e-6]), st.floats(1e-3, 100.0)))
    width = draw(st.sampled_from([1, 400, 800]))
    height = draw(st.sampled_from([1, 400]))
    return Viewport(x_min, x_min + span, y_max, width, height)


def _family(name, tr=None, extend=0, **kw):
    slice_ = synthesize(builtin_route(name, transversal=tr, window=(-2.0, 2.0), n=9, **kw))
    return extend_slice(slice_, extend, allow_noop=True)


class TestWritersAgree:
    @settings(max_examples=300, deadline=None)
    @given(slices(), viewports())
    @example(FoliationSlice(Transversal.geodesic(), [-800.0, 0.0], [0.0, 1.0], [False] * 2), Viewport())
    @example(FoliationSlice(Transversal.geodesic(), [-800.0, 800.0], [1.0, 0.0], [False] * 2), Viewport())
    @example(FoliationSlice(Transversal.geodesic(), [706.0], [0.0], [False]), Viewport())
    @example(FoliationSlice(Transversal.horocycle(1.0), [0.0, 1.0], [0.0, -1e-300], [True] * 2), Viewport())
    @example(  # a line past the angle tolerance: beta is 1.3e-6 off its direction
        FoliationSlice(Transversal.hypercycle(1.5707962267948965), [0.0], [0.999999999998995], [False]),
        Viewport(),
    )
    @example(  # outside the band, and crossing orthogonally only if it were inside
        FoliationSlice(Transversal.hypercycle(0.3), [0.0, 1.0], [-0.9, 0.9], [False] * 2),
        Viewport(),
    )
    def test_drawn_slices(self, slice_, vp):
        assert_writers_agree(slice_, vp)

    @pytest.mark.parametrize(
        "slice_",
        [
            _family("horospherical"),  # tangent circles
            _family("pencil"),
            _family("custom_constant_max"),  # horizontal lines at +bound
            _family("custom_constant_max", Transversal.hypercycle(0.9), extend=3),
            _family("constant", Transversal.hypercycle(1.3), extend=2, c=-math.sin(1.3)),
            _family("constant", Transversal.hypercycle(0.3), extend=2, c=0.1),
            _family("totally_geodesic", Transversal.hypercycle(1e-4), extend=1),
        ],
    )
    @given(viewports())
    @settings(max_examples=40, deadline=None)
    @example(Viewport(-1e-6, 3.0, 3.0, 800, 400))  # x = 0 maps to +1e-4 px
    @example(Viewport(1e-6, 3.0, 3.0, 800, 400))  # and to -1e-4 px
    @example(Viewport(-1.0 - 1e-7, 1.0, 1.0 + 1e-7, 800, 400))
    def test_families(self, slice_, vp):
        assert_writers_agree(slice_, vp)

    @given(slices())
    @settings(max_examples=100, deadline=None)
    def test_ideal_endpoints(self, slice_):
        try:
            entries = slice_.all_entries()
        except (GeometryError, OverflowError):
            return
        for _, leaf, _ in entries:
            assert ideal_endpoints(leaf) == reference_ideal_endpoints(leaf)


@pytest.mark.parametrize(
    "t, vp, value",
    [
        # The leaf at t = 706 has rx = inf and its left end at -inf; rx is
        # formatted first.
        ([0.0, 706.0], Viewport(), "inf"),
        # The first leaf's left end is at -inf, the second's ry is inf: a
        # path is formatted whole before the next.
        ([706.9, 707.6], Viewport(1.7e308, 1.79e308, 40.0, 800, 400), "-inf"),
    ],
)
def test_a_figure_past_the_float_range_names_the_first_number_formatted(t, vp, value):
    slice_ = FoliationSlice(Transversal.geodesic(), t, [0.0] * len(t), [False] * len(t))
    with pytest.raises(GeometryError, match=f"got {value}$"):
        render_svg(slice_, vp)
    assert _outcome(render_svg, slice_, vp) == _outcome(reference_render_svg, slice_, vp)


def test_an_empty_slice_has_no_rows():
    slice_ = FoliationSlice(Transversal.geodesic(), np.zeros(0), np.zeros(0), np.zeros(0, bool))
    assert _leaf_rows(slice_) == [] == reference_leaf_rows(slice_)
