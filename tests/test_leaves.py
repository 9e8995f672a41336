import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umbilic import (
    CarrierContact,
    Circle,
    DomainError,
    GeometryError,
    Leaf,
    LeafKind,
    Line,
    NotALeafError,
    carrier_contact,
    classify_leaf,
    disjoint_along_geodesic,
    disjoint_along_hypercycle,
    equidistant_offset,
    ideal_endpoints,
    leaf_orthogonal_to_geodesic,
    leaf_orthogonal_to_hypercycle,
    upper_contact,
)
from umbilic.foliation import _leaf_map
from umbilic.halfplane import Transversal
from umbilic.leaves import (
    BOUNDARY_TOL,
    _geodesic_slack,
    _hypercycle_gap,
    _orthogonal_leaves,
    _ray,
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


interior_angles = st.floats(0.01, math.pi - 0.01, allow_nan=False)
crossings = st.floats(0.05, 20.0, allow_nan=False)


class TestAngleCurvature:
    def test_classify(self):
        assert classify_leaf(0.0) == LeafKind.HOROSPHERE
        assert classify_leaf(math.pi) == LeafKind.HOROSPHERE
        assert classify_leaf(math.pi / 2) == LeafKind.TOTALLY_GEODESIC
        assert classify_leaf(1.0) == LeafKind.HYPERSPHERE
        assert classify_leaf(math.pi / 2 + 1e-13) == LeafKind.TOTALLY_GEODESIC


#: The least angle whose cot beta is finite, one step above 1 / DBL_MAX
#: (about 5.56e-309): below it cot beta overflows.
COT_OVERFLOW = math.nextafter(1.0 / sys.float_info.max, 1.0)
SUBNORMAL_ANGLES = sorted({
    5e-324, 1e-323, 1e-320, 1e-315, 1e-310, 5e-309, 6e-309, 1e-308,
    *(COT_OVERFLOW + k * 5e-324 for k in range(-40, 41)),
})


class TestEquidistantOffset:
    def test_frozen(self):
        # cos(pi/3) = 1/2, so the offset is atanh(1/2) = ln(3)/2.
        assert equidistant_offset(math.pi / 3) == pytest.approx(
            0.5493061443340549, abs=1e-15
        )
        assert equidistant_offset(math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_horospherical_signal(self):
        assert equidistant_offset(0.0) == math.inf
        assert equidistant_offset(math.pi) == -math.inf

    def test_angles_near_the_horospheres(self):
        # cos beta rounds to +-1 here, so only cot beta = sinh(offset) carries it.
        assert equidistant_offset(1e-9) == pytest.approx(21.416413017506354, rel=1e-12)
        assert equidistant_offset(1e-300) == pytest.approx(691.4686750787736, rel=1e-12)
        assert equidistant_offset(math.pi - 1e-9) == pytest.approx(-21.4164128, rel=1e-8)

    def test_subnormal_angles_stay_finite(self):
        # The offset is ln 2 - ln beta there, not the horosphere's inf.
        assert equidistant_offset(5e-324) == pytest.approx(745.1332191019411, rel=1e-15)
        assert equidistant_offset(5e-309) == pytest.approx(710.5825030032859, rel=1e-15)
        assert all(math.isfinite(equidistant_offset(b)) for b in SUBNORMAL_ANGLES)

    def test_monotone_across_the_overflow(self):
        offsets = [equidistant_offset(b) for b in SUBNORMAL_ANGLES]
        assert all(a >= b for a, b in zip(offsets, offsets[1:]))
        assert offsets[0] > offsets[-1]

    @pytest.mark.parametrize(
        "beta", [COT_OVERFLOW, 6e-309, 1e-300, 1e-9, 1.0, math.pi / 2, 3.0, math.nextafter(math.pi, 0.0)]
    )
    def test_bits_where_cot_is_finite(self, beta):
        cot = math.cos(beta) / math.sin(beta)
        assert math.isfinite(cot)
        assert equidistant_offset(beta) == math.asinh(cot)

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

    @pytest.mark.parametrize(
        "carrier, fields, message",
        [
            (Circle, (math.inf, -1.0, 2.0), "circle center must be finite, got (inf, -1.0)"),
            (Circle, (0.0, math.nan, 2.0), "circle center must be finite, got (0.0, nan)"),
            (Line, (0.0, 1.0, 0.0, 0.0), "line direction must be nonzero and finite"),
            (Line, (0.0, 1.0, math.inf, 1.0), "line direction must be nonzero and finite"),
            (Line, (math.nan, 1.0, 1.0, 0.0), "line point must be finite, got (nan, 1.0)"),
            (Line, (0.0, -math.inf, 1.0, 0.0), "line point must be finite, got (0.0, -inf)"),
        ],
    )
    def test_carriers_must_be_finite(self, carrier, fields, message):
        with pytest.raises(DomainError) as exc:
            carrier(*fields)
        assert str(exc.value) == message

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
            observed_disjoint = upper_contact(contact) is None
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

    @pytest.mark.parametrize("s1, s2", [(2.0, 1.0), (1.5, 1.5), (0.0, 1.0)])
    def test_needs_ordered_crossings(self, s1, s2):
        with pytest.raises(DomainError) as exc:
            disjoint_along_hypercycle(0.5, s1, 1.5, s2, 1.5)
        assert str(exc.value) == f"need 0 < s1 < s2, got s1={s1!r}, s2={s2!r}"

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
            observed_disjoint = upper_contact(contact) is None
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
    """The predicate as an inline comparison of right endpoints.  A leaf
    is a line where 1 + cos beta rounds to 0."""
    if 1.0 + math.cos(beta2) == 0.0:
        return True
    if 1.0 + math.cos(beta1) == 0.0:
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


def _ulps(x, k=3):
    """x and the k doubles on either side of it."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(k):
            y = math.nextafter(y, direction)
            out.append(y)
    return sorted(out)


#: Angles where the geodesic's line rule could flip: pi, the doubles
#: around pi - 1e-12 and around pi - 2**-26.5 (where cos beta stops
#: rounding to -1), and pi - 1.49e-8, the last circle of a slice
#: (acos(-0.9999999999999999)).
GEODESIC_EDGE = [
    math.pi, *_ulps(math.pi - 1e-12), *_ulps(math.pi - 2**-26.5), math.pi - 1.49e-8,
]
#: Per ray angle: the doubles around sin phi + cos beta = 1e-12, and the
#: line limit pi/2 + phi.
RAY_EDGE = {
    phi: [*_ulps(math.acos(1e-12 - math.sin(phi))), math.pi / 2 + phi] for phi in (0.5, 1.5)
}
EDGE_S = [5e-324, 1e-300, 1.0, 1e300]


class TestLineRule:
    """The constructors, the leaf columns, the pair slacks and the
    predicates make one line-or-circle choice, at the doubles where the
    rule flips, whatever the crossing's scale."""

    def test_the_pools_straddle_the_rule(self):
        cosines = [math.cos(b) for b in GEODESIC_EDGE]
        assert {c == -1.0 for c in cosines} == {True, False}
        # Circles by the angle, but cos beta rounds to -1: no circle exists.
        assert any(c == -1.0 and math.pi - b > 1e-12 for b, c in zip(GEODESIC_EDGE, cosines))
        for phi, betas in RAY_EDGE.items():
            sums = {math.sin(phi) + math.cos(b) <= 1e-12 for b in betas}
            assert sums == {True, False}

    @staticmethod
    def _built_line(build):
        """Whether ``build()`` makes a line: False for a circle, or for a
        ``GeometryError`` (a circle too large for the float range)."""
        try:
            return isinstance(build().shape, Line)
        except GeometryError:
            return False

    @staticmethod
    def _column_line(s, cbeta, ray):
        """Whether ``_orthogonal_leaves`` makes the leaf a line (nan
        radius)."""
        radius = _orthogonal_leaves(np.array([s]), np.array([cbeta]), ray)[2][0]
        return bool(np.isnan(radius))

    @pytest.mark.parametrize(
        "ray, cbeta",
        [
            (None, math.nextafter(-1.0, 0.0)),  # 1 + cos beta = 1.1e-16
            (_ray(0.9), 2e-12 - math.sin(0.9)),  # sin phi + cos beta = 2e-12
        ],
    )
    def test_a_circle_past_the_float_range_reads_inf(self, ray, cbeta):
        # Overflow, not a warning: the callers refuse the inf radius.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            radius = _orthogonal_leaves(np.array([1e300]), np.array([cbeta]), ray)[2][0]
        assert radius == math.inf

    @pytest.mark.parametrize("s", EDGE_S)
    @pytest.mark.parametrize("beta", GEODESIC_EDGE)
    def test_geodesic(self, s, beta):
        cbeta, tan = math.cos(beta), math.tan(beta / 2.0)
        line = self._column_line(s, cbeta, None)
        assert self._built_line(lambda: leaf_orthogonal_to_geodesic(s, beta)) is line
        # The slack's choice does not depend on s.
        assert (_geodesic_slack(1.0, 2.0, 0.0, cbeta, 1.0, tan) == math.inf) is line
        assert (_geodesic_slack(1.0, 2.0, cbeta, 0.0, tan, 1.0) == -math.inf) is line
        # Above the horizontal line at height 1 only a line is clear of it.
        assert disjoint_along_geodesic(1.0, math.pi, 2.0, beta) is line

    @pytest.mark.parametrize("s", EDGE_S)
    @pytest.mark.parametrize(
        "phi, beta", [(phi, beta) for phi, betas in RAY_EDGE.items() for beta in betas]
    )
    def test_hypercycle(self, s, phi, beta):
        sphi, cbeta, cos = math.sin(phi), math.cos(beta), math.cos(phi + beta)
        line = self._column_line(s, cbeta, _ray(phi))
        assert self._built_line(lambda: leaf_orthogonal_to_hypercycle(phi, s, beta)) is line
        flat = math.cos(phi + math.pi / 2)  # the totally geodesic leaf
        assert (_hypercycle_gap(1.0, 2.0, sphi, 0.0, cbeta, flat, cos) == math.inf) is line
        assert (_hypercycle_gap(1.0, 2.0, sphi, cbeta, 0.0, cos, flat) == -math.inf) is line
        # Above a line leaf only a line is clear of it.
        assert disjoint_along_hypercycle(phi, 1.0, math.pi / 2 + phi, 2.0, beta) is line


EDGE_BETAS = sorted({
    -1e-300, 0.0, 5e-324, 1e-300, 1e-9, math.pi / 2, math.pi - 1e-9, 4.0,
    *GEODESIC_EDGE, *(beta for betas in RAY_EDGE.values() for beta in betas),
}) + [math.nan]
EDGE_CROSSINGS = [0.0, -1.0, *EDGE_S, math.inf, math.nan]
EDGE_T = [-math.inf, -1e300, -800.0, 0.0, 709.0, 800.0, 1e300, math.inf, math.nan]


class TestScalarApiRaisesOnlyGeometryErrors:
    """On the edge pools the public scalar leaf API returns, or raises a
    ``GeometryError``; no other exception and no warning escapes."""

    @settings(max_examples=400)
    @given(
        st.sampled_from([0.5, 1.5]),
        st.lists(st.sampled_from(EDGE_CROSSINGS), min_size=2, max_size=2),
        st.lists(st.sampled_from(EDGE_BETAS), min_size=2, max_size=2),
        st.sampled_from(EDGE_T),
    )
    def test_edge_pools(self, phi, s, beta, t):
        s1, s2 = sorted(s) if not any(map(math.isnan, s)) else s
        calls = [
            lambda: ideal_endpoints(leaf_orthogonal_to_geodesic(s1, beta[0])),
            lambda: ideal_endpoints(leaf_orthogonal_to_hypercycle(phi, s1, beta[0])),
            lambda: disjoint_along_geodesic(s1, beta[0], s2, beta[1]),
            lambda: disjoint_along_hypercycle(phi, s1, beta[0], s2, beta[1]),
            lambda: equidistant_offset(beta[0]),
            lambda: classify_leaf(beta[0]),
            lambda: Transversal.geodesic().point(t),
            lambda: Transversal.hypercycle(phi).point(t),
            lambda: Transversal.horocycle(s2).point(t),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                try:
                    call()
                except GeometryError:
                    pass


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
        assert upper_contact(carrier_contact(l1, l2)) is not None

    def test_tangent_horospheres(self):
        l1 = leaf_orthogonal_to_geodesic(1.0, 0.0)
        l2 = leaf_orthogonal_to_geodesic(2.0, 0.0)
        contact = carrier_contact(l1, l2)
        assert contact.kind == "tangent"
        assert contact.points[0][1] == pytest.approx(0.0, abs=1e-12)
        # Boundary tangency does not count as an interior intersection.
        assert upper_contact(carrier_contact(l1, l2)) is None

    def test_coincident_circles(self):
        l1 = leaf_orthogonal_to_geodesic(1.0, 1.0)
        l2 = leaf_orthogonal_to_geodesic(1.0, 1.0)
        assert carrier_contact(l1, l2).kind == "coincident"
        assert upper_contact(carrier_contact(l1, l2)) is not None

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
        assert upper_contact(carrier_contact(l1, l2)) is None

    def test_coincident_lines(self):
        l1 = leaf_orthogonal_to_geodesic(1.5, math.pi)
        l2 = leaf_orthogonal_to_geodesic(1.5, math.pi)
        assert carrier_contact(l1, l2).kind == "coincident"
        assert upper_contact(carrier_contact(l1, l2)) is not None

    def test_upper_contact_coincident_witness_is_nan(self):
        x, y = upper_contact(CarrierContact("coincident"))
        assert math.isnan(x) and math.isnan(y)

    def test_upper_contact_is_the_first_point_above_the_boundary(self):
        contact = CarrierContact("transverse", ((1.0, -0.5), (2.0, 0.5), (3.0, 1.0)))
        assert upper_contact(contact) == (2.0, 0.5)
        # A contact at BOUNDARY_TOL itself is on the boundary.
        assert upper_contact(CarrierContact("tangent", ((0.0, BOUNDARY_TOL),))) is None
        assert upper_contact(CarrierContact("none")) is None

    def test_crossing_lines(self):
        phi = 0.5
        line1 = leaf_orthogonal_to_hypercycle(phi, 1.0, math.pi / 2 + phi)
        vertical = Leaf(Line(3.0, 1.0, 0.0, 1.0), math.pi / 2)
        contact = carrier_contact(line1, vertical)
        assert contact.kind == "transverse"
        assert contact.points[0][0] == pytest.approx(3.0, abs=1e-12)

    def test_overflowing_squares_are_refused(self):
        # Circles and mixed pairs whose squares leave the float range are
        # refused, not answered from inf; a scale 1e50 smaller is answered.
        big = Leaf(Circle(0.0, 0.0, 1e200), math.pi / 2)
        message = "a square of the carriers leaves the float range"
        for other in (
            Leaf(Circle(1e199, 0.0, 1e200), math.pi / 2),
            Leaf(Line(0.0, 1.0, 1.0, 0.0), math.pi),
        ):
            with pytest.raises(OverflowError, match=f"^{message}$"):
                carrier_contact(big, other)
        contact = carrier_contact(
            Leaf(Circle(0.0, 0.0, 1e150), math.pi / 2),
            Leaf(Circle(1e149, 0.0, 1e150), math.pi / 2),
        )
        assert contact == CarrierContact(
            "transverse",
            ((5e148, 9.987492177719088e149), (5e148, -9.987492177719088e149)),
        )


def _vertical_plane(rng, m):
    """A random vertical 2-plane P of the upper half-space R^(m-1) x (0, inf):
    a point on the boundary, a unit horizontal direction e, and a unit
    horizontal direction f normal to P."""
    origin = np.append(rng.normal(0.0, 3.0, m - 1), 0.0)
    e, f = np.zeros((2, m))
    e[:-1] = rng.normal(size=m - 1)
    e /= np.linalg.norm(e)
    f[:-1] = rng.normal(size=m - 1)
    f -= (f @ e) * e
    return origin, e, f / np.linalg.norm(f)


def _hypersurface(leaf, plane, off=0.0):
    """The leaf's hypersurface of H^m, whose trace in P is the leaf: the
    sphere about the embedded centre, as ``("sphere", centre, radius)``, or
    the hyperplane through the embedded line that holds every horizontal
    direction normal to P, as ``("plane", unit normal, offset)``.  ``off``
    moves a centre off P by that many radii along f."""
    origin, e, f = plane
    up = np.eye(origin.size)[-1]
    s = leaf.shape
    if isinstance(s, Circle):
        return "sphere", origin + s.cx * e + s.cy * up + off * s.radius * f, s.radius
    normal = s.dx * up - s.dy * e
    return "plane", normal, normal @ (origin + s.x0 * e + s.y0 * up)


def _hn_contact(first, second):
    """Whether two hypersurfaces of R^m meet, whether they meet at a height
    above ``BOUNDARY_TOL``, and the margin: how far the data lie from
    changing either answer.  The formulas hold in any dimension and read
    no plane: two spheres meet in the (m-2)-sphere about c1 + a u, u the
    unit line of centres, whose highest point lies rho sqrt(1 - u_m^2)
    above its centre; a sphere meets a hyperplane in the one about the
    foot of its centre.  The lines of one transversal are parallel, so
    two hyperplanes meet only when they coincide."""
    if first[0] == "plane" and second[0] == "sphere":
        first, second = second, first
    if first[0] == "plane":
        (_, n1, o1), (_, n2, o2) = first, second
        assert abs(abs(n1 @ n2) - 1.0) <= 1e-15
        gap = abs(o1 - np.sign(n1 @ n2) * o2)
        return (True, True, math.inf) if gap == 0.0 else (False, False, gap)
    _, c1, r1 = first
    if second[0] == "sphere":
        _, c2, r2 = second
        d = np.linalg.norm(c2 - c1)
        if d == 0.0 and r1 == r2:
            return True, True, math.inf
        margin = min(abs(d - abs(r1 - r2)), abs(r1 + r2 - d))
        if not abs(r1 - r2) < d < r1 + r2:
            return False, False, margin
        u = (c2 - c1) / d
        a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    else:
        _, normal, offset = second
        a = offset - normal @ c1  # the centre's signed distance to the plane
        margin = abs(abs(a) - r1)
        if not abs(a) < r1:
            return False, False, margin
        u = normal
    rho = math.sqrt(max(r1 * r1 - a * a, 0.0))  # 0 within rounding of a tangency
    top = c1[-1] + a * u[-1] + rho * math.sqrt(max(1.0 - u[-1] ** 2, 0.0))
    return True, top > BOUNDARY_TOL, min(margin, abs(top - BOUNDARY_TOL))


def _drawn_leaves(rng, kind, count):
    """``count`` leaf pairs orthogonal to one transversal of the kind, with
    lines, horospheres, totally geodesic leaves and equal pairs drawn
    often; circles keep their angle 1e-3 from the line end, so radii stay
    below about 1e7."""
    if kind == "horocycle":
        leaf = _leaf_map(Transversal.horocycle(math.exp(rng.uniform(-1.0, 1.0))))

        def draw():
            level = rng.choice([0.0, -1.0, rng.uniform(-1.0, -0.05)])
            return leaf(rng.uniform(-3.0, 3.0), level)

    else:
        phi = math.pi / 2 if kind == "geodesic" else rng.uniform(0.2, 1.4)
        lo, hi = math.pi / 2 - phi, math.pi / 2 + phi

        def draw():
            s = math.exp(rng.uniform(-2.0, 2.0))
            beta = rng.choice([lo, math.pi / 2, hi, *rng.uniform(lo, hi - 1e-3, 3)])
            if kind == "geodesic":
                return leaf_orthogonal_to_geodesic(s, beta)
            return leaf_orthogonal_to_hypercycle(phi, s, beta)

    for _ in range(count):
        first = draw()
        yield first, first if rng.random() < 0.05 else draw()


class TestHnReduction:
    """The library's answers are the H^n answers (README, *The question in
    H^n*).  A referee embeds drawn leaf pairs of each transversal in a
    random vertical 2-plane P of H^3 and H^4 and intersects their
    hypersurfaces there; outside a rounding band, whether they meet is
    ``carrier_contact``'s answer and whether they meet above the boundary
    is ``upper_contact``'s."""

    def _compare(self, m, kind, off=0.0, count=400):
        """(pairs compared, pairs meeting above the boundary, mismatches)."""
        rng = np.random.default_rng([m, ("geodesic", "hypercycle", "horocycle").index(kind)])
        plane = _vertical_plane(rng, m)
        compared = above = 0
        mismatches = []
        for pair in _drawn_leaves(rng, kind, count):
            meet, meet_above, margin = _hn_contact(
                _hypersurface(pair[0], plane, off), _hypersurface(pair[1], plane)
            )
            scale = max(1.0, *(abs(x) for leaf in pair for x in vars(leaf.shape).values()))
            if margin <= 1e-7 * scale:
                continue
            contact = carrier_contact(*pair)
            compared += 1
            above += meet_above
            if (meet, meet_above) != (contact.kind != "none", upper_contact(contact) is not None):
                mismatches.append(pair)
        return compared, above, mismatches

    @pytest.mark.parametrize("kind", ["geodesic", "hypercycle", "horocycle"])
    @pytest.mark.parametrize("m", [3, 4])
    def test_verdicts_match_the_plane(self, m, kind):
        compared, above, mismatches = self._compare(m, kind)
        assert mismatches == []
        assert compared >= 300 and 30 <= above <= compared - 30

    @pytest.mark.parametrize("kind", ["geodesic", "hypercycle", "horocycle"])
    def test_a_centre_off_the_plane_fails_the_referee(self, kind):
        # The reduction needs every centre in P: moved off it by half a
        # radius, a sphere misses spheres whose traces cross.
        assert self._compare(4, kind, off=0.5)[2]
