import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from umbilic import (
    DomainError,
    HPoint,
    Transversal,
    hyperbolic_distance,
)
from umbilic.halfplane import TransversalKind


def oracle_distance(p: HPoint, q: HPoint) -> float:
    """Independent route: cosh d = 1 + gap^2 / (2 y_p y_q)."""
    gap2 = (p.x - q.x) ** 2 + (p.y - q.y) ** 2
    return math.acosh(1.0 + gap2 / (2.0 * p.y * q.y))


finite = st.floats(-50.0, 50.0, allow_nan=False)
heights = st.floats(1e-3, 50.0, allow_nan=False)


def points():
    return st.builds(HPoint, finite, heights)


class TestDistance:
    def test_unit_vertical_step(self):
        d = hyperbolic_distance(HPoint(0, 1), HPoint(0, math.e))
        assert abs(d - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "p,q,expected",
        [
            (HPoint(0, 1), HPoint(1, 1), 0.9624236501192069),  # acosh(3/2)
            (HPoint(0, 2), HPoint(0, 8), math.log(4.0)),
            (HPoint(-3, 5), HPoint(-3, 5), 0.0),
        ],
    )
    def test_frozen_values(self, p, q, expected):
        assert hyperbolic_distance(p, q) == pytest.approx(expected, abs=1e-12)

    def test_vertical_segments_are_log_ratios(self):
        for a, b in [(0.5, 2.0), (1.0, 7.3), (0.01, 0.02)]:
            d = hyperbolic_distance(HPoint(0, a), HPoint(0, b))
            assert d == pytest.approx(abs(math.log(a / b)), abs=1e-12)

    def test_agrees_with_acosh_oracle_at_scale(self):
        rng = np.random.default_rng(42)
        xs = rng.uniform(-20, 20, (10000, 2))
        ys = np.exp(rng.uniform(-4, 4, (10000, 2)))
        worst = 0.0
        for (x1, x2), (y1, y2) in zip(xs, ys):
            p, q = HPoint(x1, y1), HPoint(x2, y2)
            worst = max(worst, abs(hyperbolic_distance(p, q) - oracle_distance(p, q)))
        assert worst <= 1e-10

    @given(points(), points())
    def test_symmetric(self, p, q):
        assert hyperbolic_distance(p, q) == hyperbolic_distance(q, p)

    @given(points(), points(), points())
    def test_triangle_inequality(self, p, q, r):
        dpq = hyperbolic_distance(p, q)
        dqr = hyperbolic_distance(q, r)
        dpr = hyperbolic_distance(p, r)
        assert dpr <= dpq + dqr + 1e-9


def test_hpoint_requires_positive_height():
    with pytest.raises(DomainError):
        HPoint(0.0, 0.0)
    with pytest.raises(DomainError):
        HPoint(1.0, -2.0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Transversal.geodesic().point(math.inf), "(0.0, inf)"),
        (lambda: Transversal.hypercycle(0.9).point(math.inf), "(inf, inf)"),
        (lambda: Transversal.horocycle(1.0).point(math.inf), "(inf, 1.0)"),
        (lambda: Transversal.horocycle(1.0).point(-math.inf), "(-inf, 1.0)"),
        (lambda: Transversal.horocycle(1.0).point(math.nan), "(nan, 1.0)"),
        (lambda: HPoint(0.0, math.inf), "(0.0, inf)"),
    ],
    ids=["geodesic", "hypercycle", "horocycle", "horocycle-negative", "horocycle-nan", "hpoint"],
)
def test_hpoint_requires_finite_coordinates(make, message):
    # Such a point made hyperbolic_distance return nan.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as exc:
            make()
    assert str(exc.value) == f"interior points need finite coordinates, got {message}"


class TestTransversal:
    def test_curvature_bounds(self):
        assert Transversal.geodesic().curvature_bound == 1.0
        assert Transversal.hypercycle(0.7).curvature_bound == pytest.approx(
            math.sin(0.7), abs=1e-15
        )
        assert Transversal.horocycle(2.0).curvature_bound == 0.0

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            Transversal.hypercycle(0.0)
        with pytest.raises(DomainError):
            Transversal.hypercycle(math.pi / 2)
        with pytest.raises(DomainError):
            Transversal.horocycle(0.0)
        with pytest.raises(DomainError):
            Transversal(Transversal.geodesic().kind, phi=0.3)

    @pytest.mark.parametrize(
        "kind, message",
        [
            (TransversalKind.HYPERCYCLE, "height applies to horocycles only"),
            (TransversalKind.HOROCYCLE, "phi applies to hypercycles only"),
        ],
    )
    def test_cross_kind_parameters_rejected(self, kind, message):
        with pytest.raises(DomainError) as exc:
            Transversal(kind, phi=0.5, height=1.0)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "tr",
        [
            Transversal.geodesic(),
            Transversal.hypercycle(0.4),
            Transversal.hypercycle(1.2),
            Transversal.horocycle(1.0),
        ],
    )
    def test_unit_speed(self, tr):
        # Finite-difference speed in the hyperbolic metric.
        eps = 1e-5
        for t in (-2.0, -0.3, 0.0, 1.7):
            d = hyperbolic_distance(tr.point(t - eps), tr.point(t + eps))
            assert d / (2 * eps) == pytest.approx(1.0, abs=1e-6)

    def test_horocycle_speed_scales_inversely_with_height(self):
        # The chart (t, a) is unit-speed only at height 1.
        tr = Transversal.horocycle(2.0)
        eps = 1e-5
        d = hyperbolic_distance(tr.point(-eps), tr.point(eps))
        assert d / (2 * eps) == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("tr", [Transversal.geodesic(), Transversal.hypercycle(0.9)])
    def test_points_past_the_float_range_are_refused(self, tr):
        # The leaves' own crossing rule, with the message the CLI prints.
        message = r"^the crossing at t=1500\.0 leaves the float range$"
        with pytest.raises(DomainError, match=message):
            tr.point(1500.0)
        with pytest.raises(DomainError):  # e^(t L) underflows onto the boundary
            tr.point(-1500.0)

    def test_geodesic_points(self):
        tr = Transversal.geodesic()
        p = tr.point(1.0)
        assert (p.x, p.y) == (0.0, math.e)

    def test_hypercycle_constant_distance_to_axis(self):
        # Every point of the phi-ray is at distance atanh(cos phi) from the
        # vertical axis; the nearest axis point sits at the same radius.
        phi = 0.9
        tr = Transversal.hypercycle(phi)
        expected = math.atanh(math.cos(phi))
        for t in (-1.0, 0.0, 2.0):
            p = tr.point(t)
            r = math.hypot(p.x, p.y)
            d = hyperbolic_distance(p, HPoint(0.0, r))
            assert d == pytest.approx(expected, abs=1e-9)


class TestMobius:
    @given(
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
        points(),
        points(),
    )
    # Far-apart points, where the atanh form of the distance lost 1e-10.
    @example(
        0.0, 0.9204960655083392, -2.7109375, 0.0,
        HPoint(0.0, 0.001953125), HPoint(43.0, 0.03125),
    )
    # A compressing map: both images land near -0.75 at heights near 1e-6,
    # where rounding the images alone moves the distance by 1.7e-10.
    @example(-1.5, 0.0, 2.0, -1e-05, HPoint(2.0, 1.5), HPoint(-1.0, 3.0))
    def test_isometry(self, a, b, c, d, p, q):
        det = a * d - b * c
        if not det > 1e-6:
            return

        def apply(z: HPoint) -> complex:
            # z -> (a z + b) / (c z + d), an isometry since det > 0.
            return (a * complex(z.x, z.y) + b) / (c * complex(z.x, z.y) + d)

        w1, w2 = apply(p), apply(q)
        dist0 = hyperbolic_distance(p, q)
        dist1 = hyperbolic_distance(HPoint(w1.real, w1.imag), HPoint(w2.real, w2.imag))
        # Rounding the images by a few ulps of |w| moves the distance by
        # about eps (|w1| + |w2|) / sqrt(y1 y2) to first order.
        rounding = 16 * sys.float_info.epsilon * (abs(w1) + abs(w2)) / math.sqrt(
            w1.imag * w2.imag
        )
        assert dist1 == pytest.approx(dist0, abs=1e-10 + rounding, rel=1e-10)

