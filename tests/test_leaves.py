import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from umbilic import (
    Circle,
    DomainError,
    Leaf,
    LeafKind,
    Line,
    NotALeafError,
    angle_from_mean_curvature,
    carrier_contact,
    classify_leaf,
    disjoint_along_geodesic,
    disjoint_along_hypercycle,
    equidistant_offset,
    ideal_endpoints,
    intersects_upper_halfplane,
    leaf_orthogonal_to_geodesic,
    leaf_orthogonal_to_hypercycle,
    mean_curvature_from_angle,
)

# Frozen expected values for the hypercycle leaf (phi=pi/4, s=1, beta=2pi/3),
# derived from the closed forms R = s sin(phi)/(sin(phi) + cos(beta)) etc.
# and double-checked against |a - center| = R:
#   R      = 2 + sqrt(2)
#   center = -(1 + sqrt(2)/2) * (1, 1) / sqrt(2) ... both coordinates equal
#   a-     = -(2 sqrt(3) + sqrt(6) + 2 + sqrt(2)) / 2
#   a+     =  (2 sqrt(3) + sqrt(6) - 2 - sqrt(2)) / 2
FROZEN_R = 3.414213562373095
FROZEN_CENTER = -1.7071067811865475
FROZEN_A_MINUS = -4.663902460147014
FROZEN_A_PLUS = 1.2496888977739187


angles = st.floats(0.0, math.pi, allow_nan=False)
interior_angles = st.floats(0.01, math.pi - 0.01, allow_nan=False)
crossings = st.floats(0.05, 20.0, allow_nan=False)


class TestAngleCurvature:
    def test_frozen(self):
        assert angle_from_mean_curvature(0.3) == pytest.approx(
            1.8754889808102941, abs=1e-12
        )
        assert mean_curvature_from_angle(math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    @given(angles)
    def test_roundtrip(self, beta):
        assert angle_from_mean_curvature(
            mean_curvature_from_angle(beta)
        ) == pytest.approx(beta, abs=1e-7)

    def test_domain(self):
        with pytest.raises(DomainError):
            angle_from_mean_curvature(1.5)
        with pytest.raises(DomainError):
            mean_curvature_from_angle(-0.1)

    def test_classify(self):
        assert classify_leaf(0.0) == LeafKind.HOROSPHERE
        assert classify_leaf(math.pi) == LeafKind.HOROSPHERE
        assert classify_leaf(math.pi / 2) == LeafKind.TOTALLY_GEODESIC
        assert classify_leaf(1.0) == LeafKind.HYPERSPHERE
        assert classify_leaf(math.pi / 2 + 1e-13) == LeafKind.TOTALLY_GEODESIC


class TestEquidistantOffset:
    def test_frozen(self):
        # cos(pi/3) = 1/2, so the offset is ath(1/2) = ln(3)/2.
        assert equidistant_offset(math.pi / 3) == pytest.approx(
            0.5493061443340549, abs=1e-15
        )
        assert equidistant_offset(math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_horospherical_signal(self):
        assert equidistant_offset(0.0) == math.inf
        assert equidistant_offset(math.pi) == -math.inf

    @given(interior_angles)
    def test_identities(self, beta):
        delta = equidistant_offset(beta)
        assert math.cos(beta) == pytest.approx(math.tanh(delta), abs=1e-10)
        assert 1.0 / math.tan(beta) == pytest.approx(math.sinh(delta), abs=1e-9)


class TestGeodesicLeaf:
    def test_totally_geodesic(self):
        leaf = leaf_orthogonal_to_geodesic(2.0, math.pi / 2)
        assert leaf.shape == Circle(0.0, 0.0, 2.0)
        ends = ideal_endpoints(leaf)
        assert (ends.a_minus, ends.a_plus) == (-2.0, 2.0)

    def test_horosphere_bottom(self):
        leaf = leaf_orthogonal_to_geodesic(1.0, 0.0)
        assert leaf.shape == Circle(0.0, 0.5, 0.5)
        ends = ideal_endpoints(leaf)
        assert ends.a_minus == ends.a_plus == 0.0

    def test_horosphere_top_is_horizontal_line(self):
        leaf = leaf_orthogonal_to_geodesic(3.0, math.pi)
        assert isinstance(leaf.shape, Line)
        assert leaf.shape.y0 == 3.0 and leaf.shape.dy == 0.0
        ends = ideal_endpoints(leaf)
        assert ends.a_minus == -math.inf and ends.a_plus == math.inf

    @given(crossings, st.floats(0.01, math.pi - 0.01, allow_nan=False))
    def test_apex_and_endpoints(self, s, beta):
        leaf = leaf_orthogonal_to_geodesic(s, beta)
        c = leaf.shape
        # The apex (highest point) is the crossing point (0, s).
        assert c.cx == 0.0
        assert c.cy + c.radius == pytest.approx(s, abs=1e-10, rel=1e-10)
        ends = ideal_endpoints(leaf)
        expected = s * math.tan(beta / 2.0)
        assert ends.a_plus == pytest.approx(expected, rel=1e-10, abs=1e-10)
        assert ends.a_minus == pytest.approx(-expected, rel=1e-10, abs=1e-10)

    @given(crossings, st.floats(0.01, math.pi - 0.01, allow_nan=False))
    def test_reconstruction(self, s, beta):
        # Read s and beta back off the carrier.
        c = leaf_orthogonal_to_geodesic(s, beta).shape
        assert math.acos(c.cy / c.radius) == pytest.approx(beta, abs=1e-7)
        assert c.cy + c.radius == pytest.approx(s, rel=1e-10, abs=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            leaf_orthogonal_to_geodesic(0.0, 1.0)
        with pytest.raises(DomainError):
            leaf_orthogonal_to_geodesic(1.0, 3.5)


class TestHypercycleLeaf:
    def test_frozen_example(self):
        leaf = leaf_orthogonal_to_hypercycle(math.pi / 4, 1.0, 2 * math.pi / 3)
        c = leaf.shape
        assert c.radius == pytest.approx(FROZEN_R, rel=1e-12)
        assert c.cx == pytest.approx(FROZEN_CENTER, rel=1e-12)
        assert c.cy == pytest.approx(FROZEN_CENTER, rel=1e-12)
        ends = ideal_endpoints(leaf)
        assert ends.a_minus == pytest.approx(FROZEN_A_MINUS, rel=1e-12)
        assert ends.a_plus == pytest.approx(FROZEN_A_PLUS, rel=1e-12)

    def test_endpoints_match_center_and_radius(self):
        # The boundary trace must sit at distance R from the center.
        leaf = leaf_orthogonal_to_hypercycle(math.pi / 4, 1.0, 2 * math.pi / 3)
        c = leaf.shape
        ends = ideal_endpoints(leaf)
        for a in (ends.a_minus, ends.a_plus):
            assert math.hypot(a - c.cx, c.cy) == pytest.approx(c.radius, rel=1e-10)

    def test_line_leaf_at_upper_angle(self):
        phi, s = math.pi / 4, 1.0
        leaf = leaf_orthogonal_to_hypercycle(phi, s, math.pi / 2 + phi)
        assert isinstance(leaf.shape, Line)
        ends = ideal_endpoints(leaf)
        # The finite boundary crossing sits at s / cos(phi) and plays the
        # role of a+; a- runs off to -inf, continuing the circle-leaf limit
        # (a- diverges as beta approaches pi/2 + phi from below).
        assert ends.a_minus == -math.inf
        assert ends.a_plus == pytest.approx(s / math.cos(phi), rel=1e-12)

    def test_circle_through_origin_at_lower_angle(self):
        phi, s = 0.6, 2.0
        leaf = leaf_orthogonal_to_hypercycle(phi, s, math.pi / 2 - phi)
        ends = ideal_endpoints(leaf)
        assert ends.a_minus == pytest.approx(0.0, abs=1e-12)

    @given(
        st.floats(0.1, 1.4, allow_nan=False),
        crossings,
        st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_crossing_is_orthogonal(self, phi, s, frac):
        # Interpolate beta strictly inside the admissible interval; the
        # carrier's radius at the crossing point must be parallel to the
        # ray, which is what orthogonal crossing means for circles.
        beta = math.pi / 2 - phi + 0.01 + frac * (2 * phi - 0.02)
        leaf = leaf_orthogonal_to_hypercycle(phi, s, beta)
        c = leaf.shape
        px, py = s * math.cos(phi), s * math.sin(phi)
        on_circle = math.hypot(px - c.cx, py - c.cy)
        assert on_circle == pytest.approx(c.radius, rel=1e-9, abs=1e-12)
        radial = ((px - c.cx) * math.cos(phi) + (py - c.cy) * math.sin(phi))
        assert abs(radial) == pytest.approx(on_circle, rel=1e-9, abs=1e-12)

    def test_admissibility(self):
        with pytest.raises(DomainError):
            leaf_orthogonal_to_hypercycle(0.3, 1.0, 0.1)
        with pytest.raises(DomainError):
            leaf_orthogonal_to_hypercycle(0.3, 1.0, math.pi - 0.1)
        with pytest.raises(DomainError):
            leaf_orthogonal_to_hypercycle(math.pi / 2, 1.0, math.pi / 2)


class TestLeafConstruction:
    def test_metric_circle_is_not_a_leaf(self):
        with pytest.raises(NotALeafError):
            Leaf(Circle(0.0, 5.0, 1.0), math.pi / 2)

    def test_fully_submerged_circle_is_not_a_leaf(self):
        with pytest.raises(NotALeafError):
            Leaf(Circle(0.0, -5.0, 1.0), math.pi / 2)

    def test_angle_must_match_carrier(self):
        # A circle crossing at 60 degrees cannot claim to be geodesic.
        with pytest.raises(NotALeafError):
            Leaf(Circle(0.0, 1.0, 2.0), math.pi / 2)

    def test_h_is_minus_cos_beta(self):
        leaf = leaf_orthogonal_to_geodesic(1.0, 2.0)
        assert leaf.h == pytest.approx(-math.cos(2.0), abs=1e-15)
        assert leaf.kind == LeafKind.HYPERSPHERE


def oracle_overlap(leaf1, leaf2) -> bool:
    """Brute force: sample one carrier densely, test sidedness against the
    other.  Only used to sanity-check a handful of fixed cases; the fast
    oracle for bulk comparisons is carrier_contact."""
    pts = _upper_points(leaf1)
    inside = [_signed_side(leaf2, x, y) for x, y in pts]
    return min(inside) < -1e-9 < max(inside) or any(
        abs(v) <= 1e-12 for v in inside
    )


def _upper_points(leaf, n=4001):
    if isinstance(leaf.shape, Circle):
        c = leaf.shape
        thetas = np.linspace(0.0, 2 * math.pi, n)
        xs = c.cx + c.radius * np.cos(thetas)
        ys = c.cy + c.radius * np.sin(thetas)
    else:
        ln = leaf.shape
        us = np.linspace(-100.0, 100.0, n)
        xs = ln.x0 + us * ln.dx
        ys = ln.y0 + us * ln.dy
    keep = ys > 1e-7
    return list(zip(xs[keep], ys[keep]))


def _signed_side(leaf, x, y):
    if isinstance(leaf.shape, Circle):
        c = leaf.shape
        return math.hypot(x - c.cx, y - c.cy) - c.radius
    ln = leaf.shape
    return (x - ln.x0) * ln.dy - (y - ln.y0) * ln.dx


class TestDisjointGeodesic:
    def test_remark_rules(self):
        # Upper horizontal leaf clears everything; lower horizontal blocks
        # every circle leaf; tangent horospheres only meet at the boundary.
        assert disjoint_along_geodesic(1.0, 0.5, 2.0, math.pi) is True
        assert disjoint_along_geodesic(1.0, math.pi, 2.0, 0.5) is False
        assert disjoint_along_geodesic(1.0, math.pi, 2.0, math.pi) is True
        assert disjoint_along_geodesic(1.0, 0.0, 2.0, 0.0) is True

    def test_endpoint_comparison(self):
        # s tan(beta/2) ordering in both directions.
        assert disjoint_along_geodesic(1.0, 1.0, 1.1, 1.0) is True
        assert disjoint_along_geodesic(1.0, 2.5, 1.1, 0.4) is False

    def test_needs_ordered_crossings(self):
        with pytest.raises(DomainError):
            disjoint_along_geodesic(2.0, 1.0, 1.0, 1.0)

    def test_matches_carrier_oracle(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(3000):
            s1 = math.exp(rng.uniform(-1.5, 0.7))
            s2 = s1 * math.exp(rng.uniform(0.001, 1.1))
            b1, b2 = rng.uniform(0.02, math.pi - 0.02, 2)
            slack = s2 * math.tan(b2 / 2) - s1 * math.tan(b1 / 2)
            if abs(slack) < 1e-7:
                continue
            l1 = leaf_orthogonal_to_geodesic(s1, b1)
            l2 = leaf_orthogonal_to_geodesic(s2, b2)
            contact = carrier_contact(l1, l2)
            if contact.kind == "tangent":
                continue
            observed_disjoint = not intersects_upper_halfplane(l1, l2)
            assert disjoint_along_geodesic(s1, b1, s2, b2) == observed_disjoint
            checked += 1
        assert checked > 2500


class TestDisjointHypercycle:
    def test_line_rules(self):
        phi = 0.7
        top = math.pi / 2 + phi
        assert disjoint_along_hypercycle(phi, 1.0, top, 2.0, top) is True
        assert disjoint_along_hypercycle(phi, 1.0, top, 2.0, math.pi / 2) is False
        assert disjoint_along_hypercycle(phi, 1.0, math.pi / 2, 2.0, top) is True

    def test_left_endpoint_comparison(self):
        phi = 0.7
        assert disjoint_along_hypercycle(phi, 1.0, 1.2, 1.3, 1.2) is True
        assert disjoint_along_hypercycle(phi, 1.0, 2.1, 1.05, 0.95) is False

    def test_admissibility_checked(self):
        with pytest.raises(DomainError):
            disjoint_along_hypercycle(0.3, 1.0, 0.05, 2.0, 1.5)

    def test_matches_carrier_oracle(self):
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(3000):
            phi = rng.uniform(0.15, 1.4)
            s1 = math.exp(rng.uniform(-1.5, 0.7))
            s2 = s1 * math.exp(rng.uniform(0.001, 1.1))
            lo, hi = math.pi / 2 - phi, math.pi / 2 + phi
            b1, b2 = rng.uniform(lo + 0.02, hi - 0.02, 2)
            l1 = leaf_orthogonal_to_hypercycle(phi, s1, b1)
            l2 = leaf_orthogonal_to_hypercycle(phi, s2, b2)
            e1 = ideal_endpoints(l1)
            e2 = ideal_endpoints(l2)
            if abs(e1.a_minus - e2.a_minus) < 1e-7:
                continue
            contact = carrier_contact(l1, l2)
            if contact.kind == "tangent":
                continue
            observed_disjoint = not intersects_upper_halfplane(l1, l2)
            assert (
                disjoint_along_hypercycle(phi, s1, b1, s2, b2) == observed_disjoint
            )
            checked += 1
        assert checked > 2500

    def test_false_pair_matches_slow_overlap_oracle(self):
        phi = 0.8
        l1 = leaf_orthogonal_to_hypercycle(phi, 1.0, 2.0)
        l2 = leaf_orthogonal_to_hypercycle(phi, 1.1, 0.9)
        assert disjoint_along_hypercycle(phi, 1.0, 2.0, 1.1, 0.9) is False
        assert oracle_overlap(l1, l2) is True


def _reference_disjoint_geodesic(s1, beta1, s2, beta2):
    """The predicate as an inline comparison of right endpoints."""
    if beta2 >= math.pi - 1e-12:
        return True
    if beta1 >= math.pi - 1e-12:
        return False
    return s1 * math.tan(beta1 / 2.0) <= s2 * math.tan(beta2 / 2.0)


def _reference_disjoint_hypercycle(phi, s1, beta1, s2, beta2):
    """The predicate as an inline comparison of left endpoints."""
    sphi = math.sin(phi)
    line1 = sphi + math.cos(beta1) <= 1e-12
    line2 = sphi + math.cos(beta2) <= 1e-12
    if line1:
        return line2
    if line2:
        return True
    a1 = s1 * math.cos(phi + beta1) / (sphi + math.cos(beta1))
    a2 = s2 * math.cos(phi + beta2) / (sphi + math.cos(beta2))
    return a2 <= a1


def _ordered_crossings():
    return st.tuples(
        st.floats(1e-3, 1e3, allow_nan=False),
        st.floats(1e-3, 1e3, allow_nan=False),
    ).filter(lambda p: p[0] != p[1]).map(sorted)


def _range_angles(lo, hi):
    """Angles in [lo, hi], weighted towards the ends and the line case."""
    return st.one_of(
        st.floats(lo, hi, allow_nan=False),
        st.sampled_from([lo, hi, math.nextafter(hi, lo), hi - 1e-12, hi - 2e-12]),
    )


class TestSlackPredicatesMatchReference:
    """The slack-based predicates against the inline comparisons."""

    @given(_ordered_crossings(), _range_angles(0.0, math.pi), _range_angles(0.0, math.pi))
    def test_geodesic(self, s, beta1, beta2):
        s1, s2 = s
        assert disjoint_along_geodesic(s1, beta1, s2, beta2) == (
            _reference_disjoint_geodesic(s1, beta1, s2, beta2)
        )

    @given(_ordered_crossings(), interior_angles)
    def test_geodesic_near_ties(self, s, beta1):
        # beta2 puts the right endpoints within rounding of each other.
        s1, s2 = s
        beta2 = 2.0 * math.atan(s1 * math.tan(beta1 / 2.0) / s2)
        assert disjoint_along_geodesic(s1, beta1, s2, beta2) == (
            _reference_disjoint_geodesic(s1, beta1, s2, beta2)
        )

    @given(st.data(), st.floats(0.05, math.pi / 2 - 1e-3), _ordered_crossings())
    def test_hypercycle(self, data, phi, s):
        s1, s2 = s
        lo, hi = math.pi / 2 - phi, math.pi / 2 + phi
        beta1 = data.draw(_range_angles(lo, hi))
        beta2 = data.draw(_range_angles(lo, hi))
        assert disjoint_along_hypercycle(phi, s1, beta1, s2, beta2) == (
            _reference_disjoint_hypercycle(phi, s1, beta1, s2, beta2)
        )


class TestCarrierContact:
    def test_transverse_circles_frozen(self):
        # Two axis-orthogonal leaves chosen to cross: the intersection row
        # solves to y = 0.975, x = +-sqrt(0.099375).
        l1 = Leaf(Circle(0.0, -1.0, 2.0), 2 * math.pi / 3)
        l2 = Leaf(Circle(0.0, 0.35, 0.7), math.pi / 3)
        contact = carrier_contact(l1, l2)
        assert contact.kind == "transverse"
        ys = sorted(y for _, y in contact.points)
        xs = sorted(x for x, _ in contact.points)
        assert ys == pytest.approx([0.975, 0.975], abs=1e-12)
        # The radical-line route loses a couple of digits squaring radii.
        assert xs == pytest.approx(
            [-0.31523800532124437, 0.31523800532124437], abs=1e-9
        )
        assert intersects_upper_halfplane(l1, l2) is True

    def test_tangent_horospheres(self):
        l1 = leaf_orthogonal_to_geodesic(1.0, 0.0)
        l2 = leaf_orthogonal_to_geodesic(2.0, 0.0)
        contact = carrier_contact(l1, l2)
        assert contact.kind == "tangent"
        assert contact.points[0][1] == pytest.approx(0.0, abs=1e-12)
        # Boundary tangency does not count as an interior intersection.
        assert intersects_upper_halfplane(l1, l2) is False

    def test_coincident_circles(self):
        l1 = leaf_orthogonal_to_geodesic(1.0, 1.0)
        l2 = leaf_orthogonal_to_geodesic(1.0, 1.0)
        assert carrier_contact(l1, l2).kind == "coincident"
        assert intersects_upper_halfplane(l1, l2) is True

    def test_disjoint_nested_circles(self):
        l1 = leaf_orthogonal_to_geodesic(1.0, 1.0)
        l2 = leaf_orthogonal_to_geodesic(3.0, 1.0)
        assert carrier_contact(l1, l2).kind == "none"

    def test_circle_line(self):
        circle = leaf_orthogonal_to_geodesic(1.0, math.pi / 2)
        line = leaf_orthogonal_to_geodesic(0.5, math.pi)
        contact = carrier_contact(circle, line)
        assert contact.kind == "transverse"
        for x, y in contact.points:
            assert y == pytest.approx(0.5, abs=1e-12)
            assert abs(x) == pytest.approx(math.sqrt(0.75), abs=1e-12)

    def test_parallel_lines(self):
        l1 = leaf_orthogonal_to_geodesic(1.0, math.pi)
        l2 = leaf_orthogonal_to_geodesic(2.0, math.pi)
        assert carrier_contact(l1, l2).kind == "none"
        assert intersects_upper_halfplane(l1, l2) is False

    def test_coincident_lines(self):
        l1 = leaf_orthogonal_to_geodesic(1.5, math.pi)
        l2 = leaf_orthogonal_to_geodesic(1.5, math.pi)
        assert carrier_contact(l1, l2).kind == "coincident"
        assert intersects_upper_halfplane(l1, l2) is True

    def test_crossing_lines(self):
        phi = 0.5
        line1 = leaf_orthogonal_to_hypercycle(phi, 1.0, math.pi / 2 + phi)
        vertical = Leaf(Line(3.0, 1.0, 0.0, 1.0), math.pi / 2)
        contact = carrier_contact(line1, vertical)
        assert contact.kind == "transverse"
        assert contact.points[0][0] == pytest.approx(3.0, abs=1e-12)
