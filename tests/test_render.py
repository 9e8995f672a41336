import math

import pytest

from umbilic import (
    DomainError,
    FoliationSlice,
    Transversal,
    Viewport,
    builtin_route,
    extend_slice,
    render_svg,
    synthesize,
)


class TestViewport:
    def test_to_px_corners(self):
        vp = Viewport(x_min=-3, x_max=3, y_max=3, width_px=800, height_px=400)
        assert vp.to_px(0.0, 0.0) == (400.0, 400.0)
        assert vp.to_px(-3.0, 3.0) == (0.0, 0.0)
        assert vp.to_px(3.0, 0.0) == (800.0, 400.0)

    def test_scales(self):
        vp = Viewport(x_min=-2, x_max=2, y_max=4, width_px=400, height_px=400)
        assert vp.x_scale == 100.0
        assert vp.y_scale == 100.0

    def test_rejects_bad_ranges(self):
        with pytest.raises(DomainError):
            Viewport(x_min=1.0, x_max=1.0)
        with pytest.raises(DomainError):
            Viewport(y_max=0.0)
        with pytest.raises(DomainError):
            Viewport(width_px=0)

    @pytest.mark.parametrize(
        "x_min, x_max, y_max",
        [
            (-math.inf, math.inf, 2.0),  # x scale 0: every x maps to nan
            (-1e308, 1e308, 2.0),  # the x span overflows to inf
            (-2.0, 2.0, 1e-320),  # the y scale overflows to inf
        ],
    )
    def test_rejects_non_finite_scales(self, x_min, x_max, y_max):
        with pytest.raises(DomainError):
            Viewport(x_min, x_max, y_max, 400, 200)


def leaf_paths(svg):
    return [ln for ln in svg.splitlines() if 'class="leaf' in ln]


def axis_slice(*circles):
    """The geodesic slice of axis-centred circles (cy, r), each at its row
    t = ln(cy + r) (its apex on the axis), h = -cy / r."""
    rows = [(math.log(cy + r), -cy / r) for cy, r in circles]
    return FoliationSlice(
        Transversal.geodesic(), [t for t, _ in rows], [h for _, h in rows], [False] * len(rows)
    )


class TestRenderSvg:
    def test_byte_identical_rerender(self):
        slice_ = synthesize(builtin_route("pencil", window=(-2, 2), n=41))
        assert render_svg(slice_) == render_svg(slice_)

    def test_element_inventory(self):
        slice_ = synthesize(builtin_route("pencil", window=(-2, 2), n=11))
        svg = render_svg(slice_)
        lines = svg.splitlines()
        assert lines[0] == '<?xml version="1.0" encoding="UTF-8"?>'
        assert lines[1].startswith("<svg ")
        assert lines[-1] == "</svg>"
        assert sum('class="frame"' in ln for ln in lines) == 1
        assert sum('class="ideal-boundary"' in ln for ln in lines) == 1
        assert sum('class="transversal"' in ln for ln in lines) == 1
        assert len(leaf_paths(svg)) == 11

    def test_empty_slice_still_renders_scene(self):
        svg = render_svg(axis_slice())
        assert 'class="frame"' in svg
        assert 'class="ideal-boundary"' in svg
        assert 'class="transversal"' in svg
        assert not leaf_paths(svg)

    def test_crossing_circle_is_one_arc(self):
        svg = render_svg(axis_slice((0.0, 1.0)))
        [path] = leaf_paths(svg)
        assert path.count(" A ") == 1
        assert not path.rstrip("/>").endswith("Z")

    def test_tangent_circle_is_a_closed_two_arc_loop(self):
        svg = render_svg(axis_slice((1.0, 1.0)))
        [path] = leaf_paths(svg)
        assert path.count(" A ") == 2
        assert " Z" in path

    def test_arc_flags_track_center_height(self):
        # A center above the axis means more than half the circle is
        # visible, so the large-arc flag must be set; below, cleared.
        [up] = leaf_paths(render_svg(axis_slice((0.5, 1.0))))
        [lo] = leaf_paths(render_svg(axis_slice((-0.5, 1.0))))
        assert " 0 1 1 " in up
        assert " 0 0 1 " in lo

    def test_line_leaf_is_one_segment(self):
        slice_ = synthesize(builtin_route("custom_constant_max", n=3))
        for path in leaf_paths(render_svg(slice_)):
            assert " L " in path
            assert " A " not in path

    def test_pinned_leaves_dashed(self):
        svg = render_svg(synthesize(builtin_route("horospherical", n=5)))
        for path in leaf_paths(svg):
            assert "pinned" in path
            assert "stroke-dasharray" in path

    def test_interior_leaves_not_dashed(self):
        svg = render_svg(synthesize(builtin_route("totally_geodesic", n=5)))
        for path in leaf_paths(svg):
            assert "pinned" not in path
            assert "stroke-dasharray" not in path

    def test_horocycle_leaves_never_dashed(self):
        # The curvature bound collapses to 0 over a horocycle, so the h=0
        # leaves sit on the bound without being pins.
        from umbilic import Route
        import numpy as np

        r = Route(Transversal.horocycle(1.0), np.linspace(-1, 1, 5), np.zeros(5))
        svg = render_svg(synthesize(r))
        for path in leaf_paths(svg):
            assert "pinned" not in path

    def test_extension_leaves_get_their_own_class_and_color(self):
        slice_ = extend_slice(
            synthesize(
                builtin_route(
                    "constant", transversal=Transversal.hypercycle(0.8), c=0.1, n=5
                )
            ),
            2,
        )
        svg = render_svg(slice_)
        ext = [ln for ln in leaf_paths(svg) if "extension" in ln]
        assert len(ext) == 4
        assert all('stroke="#7aa8c4"' in ln for ln in ext)

    def test_no_negative_zero_in_output(self):
        slice_ = synthesize(builtin_route("pencil", window=(-2, 2), n=41))
        assert "-0.000" not in render_svg(slice_)

    def test_leaves_drawn_in_parameter_order(self):
        slice_ = extend_slice(
            synthesize(
                builtin_route(
                    "constant", transversal=Transversal.hypercycle(0.8), c=0.1, n=5
                )
            ),
            1,
        )
        svg = render_svg(slice_)
        paths = leaf_paths(svg)
        assert "extension" in paths[0]
        assert "extension" in paths[-1]
        assert all("extension" not in p for p in paths[1:-1])
