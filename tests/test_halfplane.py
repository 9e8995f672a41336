import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from umbilic import (
    INFINITY,
    DegenerateInputError,
    DomainError,
    HPoint,
    MobiusMap,
    Transversal,
    ath,
    canonical_horocycle_isometry,
    canonical_isometry,
    hyperbolic_distance,
)


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


class TestAth:
    @given(st.floats(-4, 4, allow_nan=False))
    def test_roundtrip(self, x):
        # Beyond |x| ~ 4 the float image of tanh is too close to 1 for the
        # inverse to recover 12 digits, so the contract stops there.
        assert ath(math.tanh(x)) == pytest.approx(x, abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize("t", [-1.0, 1.0, 2.0, -3.5])
    def test_domain(self, t):
        with pytest.raises(DomainError):
            ath(t)


def test_hpoint_requires_positive_height():
    with pytest.raises(DomainError):
        HPoint(0.0, 0.0)
    with pytest.raises(DomainError):
        HPoint(1.0, -2.0)


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

    def test_geodesic_points(self):
        tr = Transversal.geodesic()
        p = tr.point(1.0)
        assert (p.x, p.y) == (0.0, math.e)

    def test_hypercycle_constant_distance_to_axis(self):
        # Every point of the phi-ray is at distance ath(cos phi) from the
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
    def test_determinant_normalized(self):
        m = MobiusMap(2.0, 0.0, 0.0, 2.0)
        assert m.a * m.d - m.b * m.c == pytest.approx(1.0, abs=1e-15)

    def test_rejects_nonpositive_determinant(self):
        with pytest.raises(DegenerateInputError):
            MobiusMap(1.0, 0.0, 0.0, -1.0)
        with pytest.raises(DegenerateInputError):
            MobiusMap(1.0, 2.0, 2.0, 4.0)

    def test_compose_inverse_is_identity(self):
        m = MobiusMap(3.0, 1.0, 2.0, 1.0)
        assert m.compose(m.inverse()) == MobiusMap.identity()

    def test_apply_ideal(self):
        m = MobiusMap(0.0, -1.0, 1.0, -2.0)  # z -> -1/(z-2)
        assert m.apply_ideal(2.0) == INFINITY
        assert m.apply_ideal(INFINITY) == 0.0
        assert m.apply_ideal(3.0) == pytest.approx(-1.0)

    @given(
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
        points(),
        points(),
    )
    # Far-apart points, where the ath form of the distance lost 1e-10.
    @example(
        0.0, 0.9204960655083392, -2.7109375, 0.0,
        HPoint(0.0, 0.001953125), HPoint(43.0, 0.03125),
    )
    def test_isometry(self, a, b, c, d, p, q):
        det = a * d - b * c
        if not det > 1e-6:
            return
        m = MobiusMap(a, b, c, d)
        dist0 = hyperbolic_distance(p, q)
        dist1 = hyperbolic_distance(m.apply(p), m.apply(q))
        assert dist1 == pytest.approx(dist0, abs=1e-10, rel=1e-10)


class TestCanonicalIsometry:
    def test_finite_endpoints(self):
        m = canonical_isometry(-1.0, 1.0)
        assert m.apply_ideal(-1.0) == 0.0
        assert m.apply_ideal(1.0) == INFINITY
        apex = m.apply(HPoint(0.0, 1.0))
        assert apex.x == pytest.approx(0.0, abs=1e-15)
        assert apex.y == pytest.approx(1.0, abs=1e-15)

    def test_reversed_endpoints(self):
        m = canonical_isometry(4.0, -2.0)
        assert m.apply_ideal(4.0) == 0.0
        assert m.apply_ideal(-2.0) == INFINITY
        apex = m.apply(HPoint(1.0, 3.0))  # apex of the semicircle over [-2, 4]
        assert apex.x == pytest.approx(0.0, abs=1e-12)
        assert apex.y == pytest.approx(1.0, abs=1e-12)

    def test_endpoint_at_infinity(self):
        m = canonical_isometry(2.0, INFINITY)
        assert m.apply_ideal(2.0) == 0.0
        assert m.apply_ideal(INFINITY) == INFINITY
        p = m.apply(HPoint(2.0, 5.0))
        assert (p.x, p.y) == (0.0, 5.0)

        m2 = canonical_isometry(INFINITY, 3.0)
        assert m2.apply_ideal(INFINITY) == 0.0
        assert m2.apply_ideal(3.0) == INFINITY

    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(0.1, 20, allow_nan=False),
        st.floats(0.05, math.pi - 0.05, allow_nan=False),
    )
    def test_maps_semicircle_to_axis(self, lo, width, theta):
        hi = lo + width
        m = canonical_isometry(lo, hi)
        cx, r = (lo + hi) / 2.0, width / 2.0
        z = HPoint(cx + r * math.cos(theta), r * math.sin(theta))
        assert abs(m.apply(z).x) <= 1e-9

    def test_hypercycle_angle_sign(self):
        m_pos = canonical_isometry(-1.0, 1.0, angle=0.6)
        m_neg = canonical_isometry(-1.0, 1.0, angle=-0.6)
        assert m_pos.apply_ideal(-1.0) == 0.0
        assert m_neg.apply_ideal(1.0) == 0.0
        assert m_neg.apply_ideal(-1.0) == INFINITY

    def test_angle_domain(self):
        for bad in (0.0, math.pi / 2, 2.0, -math.pi):
            with pytest.raises(DomainError):
                canonical_isometry(0.0, 1.0, angle=bad)

    def test_degenerate_endpoints(self):
        with pytest.raises(DegenerateInputError):
            canonical_isometry(1.0, 1.0)
        with pytest.raises(DegenerateInputError):
            canonical_isometry(INFINITY, INFINITY)


class TestCanonicalHorocycle:
    def test_horizontal_line_scales(self):
        m = canonical_horocycle_isometry(INFINITY, 2.0)
        p = m.apply(HPoint(3.0, 2.0))
        assert (p.x, p.y) == (1.5, 1.0)

    def test_tangent_circle(self):
        # Circle tangent at 2 with diameter 1/2; its top maps to (0, 1).
        m = canonical_horocycle_isometry(2.0, 0.5)
        assert m.apply_ideal(2.0) == INFINITY
        top = m.apply(HPoint(2.0, 0.5))
        assert top.x == pytest.approx(0.0, abs=1e-15)
        assert top.y == pytest.approx(1.0, abs=1e-15)

    def test_size_must_be_positive(self):
        with pytest.raises(DomainError):
            canonical_horocycle_isometry(0.0, 0.0)
