import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umbilic import (
    Circle,
    DomainError,
    FoliationSlice,
    InvalidRouteError,
    Leaf,
    LeafKind,
    Line,
    Route,
    Transversal,
    builtin_route,
    extend_slice,
    ideal_endpoints,
    perturbed_invalid_route,
    random_valid_route,
    run_disjointness_agreement,
    synthesize,
    verify_disjoint,
)
from umbilic import foliation
from umbilic.cli import main
from umbilic.foliation import DisjointnessReport, PairContact
from umbilic.halfplane import TransversalKind
from umbilic.leaves import (
    carrier_contact,
    leaf_orthogonal_to_geodesic,
    leaf_orthogonal_to_hypercycle,
)


class TestSynthesize:
    def test_pencil_shares_ideal_endpoints(self):
        # Every pencil leaf ends at -1 and +1: tan(beta/2) = e^-t cancels
        # the footpoint scale e^t exactly.
        slice_ = synthesize(builtin_route("pencil"))
        assert len(slice_.leaves) == 121
        for _, leaf in slice_.leaves:
            ends = ideal_endpoints(leaf)
            assert ends.a_minus == pytest.approx(-1.0, abs=1e-9)
            assert ends.a_plus == pytest.approx(1.0, abs=1e-9)

    def test_pencil_middle_leaf_is_totally_geodesic(self):
        slice_ = synthesize(builtin_route("pencil", window=(-3, 3), n=121))
        t, leaf = slice_.leaves[60]
        assert t == 0.0
        assert leaf.kind is LeafKind.TOTALLY_GEODESIC

    def test_horospherical_family_audits_clean(self):
        # All leaves are tangent at the origin, which sits on the ideal
        # boundary and therefore does not count as a contact.
        slice_ = synthesize(builtin_route("horospherical", n=31))
        assert all(l.kind is LeafKind.HOROSPHERE for _, l in slice_.leaves)
        assert verify_disjoint(slice_).clean

    def test_constant_max_family_is_parallel_lines(self):
        slice_ = synthesize(builtin_route("custom_constant_max", n=15))
        for t, leaf in slice_.leaves:
            assert isinstance(leaf.shape, Line)
            assert leaf.shape.y0 == pytest.approx(math.exp(t))
        assert verify_disjoint(slice_).clean

    def test_constant_family_is_a_scaling_family(self):
        tr = Transversal.hypercycle(0.8)
        slice_ = synthesize(builtin_route("constant", transversal=tr, c=0.3, n=11, window=(0, 1)))
        radii = [leaf.shape.radius for _, leaf in slice_.leaves]
        expected = math.exp(0.1 * math.sin(0.8))
        for r0, r1 in zip(radii, radii[1:]):
            assert r1 / r0 == pytest.approx(expected, rel=1e-12)

    def test_invalid_route_carries_verdict(self):
        route, _ = perturbed_invalid_route(Transversal.geodesic(), seed=3)
        with pytest.raises(InvalidRouteError) as exc:
            synthesize(route)
        assert exc.value.verdict is not None
        assert not exc.value.verdict.valid

    def test_force_builds_a_dirty_family(self):
        route, window = perturbed_invalid_route(Transversal.geodesic(), seed=3)
        slice_ = synthesize(route, force=True)
        assert len(slice_.leaves) == route.n
        report = verify_disjoint(slice_)
        assert not report.clean
        assert report.intersecting

    def test_curvature_beyond_bound_is_unrealizable_even_forced(self):
        r = Route(Transversal.geodesic(), [0.0, 1.0], [0.0, 1.5])
        with pytest.raises(DomainError):
            synthesize(r, force=True)

    def test_snaps_within_tolerance_of_the_bound(self):
        r = Route(Transversal.geodesic(), [0.0, 1.0], [0.0, 1.0 + 1e-12])
        slice_ = synthesize(r)
        assert isinstance(slice_.leaves[1][1].shape, Line)


class TestSynthesizeHorocycle:
    def test_zero_route_gives_vertical_lines(self):
        r = Route(Transversal.horocycle(1.0), np.linspace(-2, 2, 9), np.zeros(9))
        slice_ = synthesize(r)
        for t, leaf in slice_.leaves:
            assert isinstance(leaf.shape, Line)
            assert leaf.shape.x0 == pytest.approx(t)
            assert leaf.shape.dx == 0.0
        assert verify_disjoint(slice_).clean

    def test_nonzero_route_rejected_without_force(self):
        r = Route(Transversal.horocycle(1.0), [0.0, 1.0], [-0.5, -0.5])
        with pytest.raises(InvalidRouteError):
            synthesize(r)

    def test_forced_negative_levels_build_circles_on_the_line(self):
        r = Route(Transversal.horocycle(1.0), [0.0, 4.0], [-0.5, -0.5])
        slice_ = synthesize(r, force=True)
        for t, leaf in slice_.leaves:
            assert leaf.shape == Circle(t, 1.0, 2.0)
            assert leaf.beta == pytest.approx(math.acos(0.5))

    def test_positive_level_is_unrealizable(self):
        r = Route(Transversal.horocycle(1.0), [0.0, 1.0], [0.5, 0.5])
        with pytest.raises(DomainError):
            synthesize(r, force=True)

    def test_level_below_minus_one_is_unrealizable(self):
        r = Route(Transversal.horocycle(1.0), [0.0, 1.0], [-1.2, -1.2])
        with pytest.raises(DomainError):
            synthesize(r, force=True)


def slice_of(leaves):
    return FoliationSlice(Transversal.geodesic(), tuple(leaves))


class TestVerifyDisjoint:
    def test_crossing_circles_flagged(self):
        report = verify_disjoint(
            slice_of(
                [
                    (0.0, Leaf(Circle(0.0, -1.0, 2.0), math.acos(-0.5))),
                    (1.0, Leaf(Circle(0.0, 0.35, 0.7), math.acos(0.5))),
                ]
            )
        )
        assert not report.clean
        assert report.pair_count == 1
        [contact] = report.intersecting
        assert contact.kind == "transverse"
        assert contact.y == pytest.approx(0.975, abs=1e-9)

    def test_interior_tangency_flagged_separately(self):
        report = verify_disjoint(
            slice_of(
                [
                    (0.0, Leaf(Circle(0.0, 0.0, 2.0), math.pi / 2)),
                    (1.0, Leaf(Circle(0.0, 1.0, 1.0), 0.0)),
                ]
            )
        )
        assert not report.clean
        assert not report.intersecting
        [contact] = report.tangent
        assert (contact.x, contact.y) == pytest.approx((0.0, 2.0), abs=1e-9)

    def test_boundary_tangency_is_fine(self):
        report = verify_disjoint(
            slice_of(
                [
                    (0.0, Leaf(Circle(0.0, 0.5, 0.5), 0.0)),
                    (1.0, Leaf(Circle(0.0, 1.0, 1.0), 0.0)),
                ]
            )
        )
        assert report.clean

    def test_coincident_carriers_count_as_intersecting(self):
        leaf = Leaf(Circle(0.0, 0.0, 1.0), math.pi / 2)
        report = verify_disjoint(slice_of([(0.0, leaf), (1.0, leaf)]))
        assert not report.clean
        [contact] = report.intersecting
        assert contact.kind == "coincident"
        assert math.isnan(contact.x)

    def test_nested_geodesics_are_clean(self):
        report = verify_disjoint(
            slice_of(
                [
                    (0.0, Leaf(Circle(0.0, 0.0, 1.0), math.pi / 2)),
                    (1.0, Leaf(Circle(0.0, 0.0, 2.0), math.pi / 2)),
                ]
            )
        )
        assert report.clean
        assert report.pair_count == 1

    def test_pair_count_covers_extensions(self):
        slice_ = synthesize(
            builtin_route("constant", transversal=Transversal.hypercycle(0.7), c=0.2, n=5)
        )
        extended = extend_slice(slice_, 2)
        report = verify_disjoint(extended)
        assert report.pair_count == 9 * 8 // 2
        assert report.clean


class TestExtendSlice:
    def make_slice(self, n=9):
        tr = Transversal.hypercycle(0.9)
        return synthesize(builtin_route("constant", transversal=tr, c=-0.2, n=n, window=(-1, 1)))

    def test_adds_count_per_side(self):
        slice_ = self.make_slice()
        out = extend_slice(slice_, 3)
        assert len(out.extension_leaves) == 6
        assert len(out.leaves) == len(slice_.leaves)

    def test_extension_spacing_defaults_to_sample_spacing(self):
        out = extend_slice(self.make_slice(n=9), 2)
        ts = [t for t, _, _ in out.all_entries()]
        assert ts == sorted(ts)
        diffs = np.diff(ts)
        assert diffs == pytest.approx(np.full(12, 0.25))

    def test_extension_copies_end_angles(self):
        slice_ = self.make_slice()
        out = extend_slice(slice_, 2)
        betas = {leaf.beta for _, leaf in out.extension_leaves}
        assert betas == {slice_.leaves[0][1].beta}

    def test_extended_family_stays_disjoint(self):
        out = extend_slice(self.make_slice(), 5)
        assert verify_disjoint(out).clean

    def test_custom_step(self):
        out = extend_slice(self.make_slice(), 1, step=2.0)
        ts = sorted(t for t, _ in out.extension_leaves)
        assert ts == pytest.approx([-3.0, 3.0])

    def test_zero_count_is_a_noop(self):
        slice_ = self.make_slice()
        assert extend_slice(slice_, 0) is slice_

    def test_empty_slice_is_a_noop(self):
        empty = FoliationSlice(Transversal.hypercycle(0.9), ())
        assert extend_slice(empty, 3) is empty

    def test_geodesic_slice_raises(self):
        slice_ = synthesize(builtin_route("pencil", n=11))
        with pytest.raises(DomainError):
            extend_slice(slice_, 1)
        assert extend_slice(slice_, 1, allow_noop=True) is slice_

    def test_bad_parameters(self):
        slice_ = self.make_slice()
        with pytest.raises(DomainError):
            extend_slice(slice_, -1)
        with pytest.raises(DomainError):
            extend_slice(slice_, 1, step=0.0)


LEGAL_COMBOS = [
    ("totally_geodesic", Transversal.geodesic(), None),
    ("totally_geodesic", Transversal.hypercycle(0.8), None),
    ("horospherical", Transversal.geodesic(), None),
    ("pencil", Transversal.geodesic(), None),
    ("constant", Transversal.geodesic(), 0.4),
    ("constant", Transversal.hypercycle(0.8), -0.5),
    ("custom_constant_max", Transversal.geodesic(), None),
    ("custom_constant_max", Transversal.hypercycle(0.8), None),
]


class TestBuiltinRoutes:
    @pytest.mark.parametrize("name,tr,c", LEGAL_COMBOS)
    def test_every_builtin_passes_both_validators(self, name, tr, c):
        from umbilic import validate_c0, validate_c1

        route = builtin_route(name, transversal=tr, c=c, n=41)
        assert validate_c0(route).valid
        assert validate_c1(route).valid

    @pytest.mark.parametrize("name,tr,c", LEGAL_COMBOS)
    def test_every_builtin_synthesizes_clean(self, name, tr, c):
        slice_ = synthesize(builtin_route(name, transversal=tr, c=c, n=21))
        assert verify_disjoint(slice_).clean

    def test_unknown_family(self):
        with pytest.raises(DomainError, match="unknown family"):
            builtin_route("spiral")

    def test_parameter_errors(self):
        with pytest.raises(DomainError):
            builtin_route("pencil", n=1)
        with pytest.raises(DomainError):
            builtin_route("pencil", window=(2.0, -2.0))
        with pytest.raises(DomainError):
            builtin_route("constant")
        with pytest.raises(DomainError):
            builtin_route("constant", c=1.5)
        with pytest.raises(DomainError):
            builtin_route("constant", transversal=Transversal.hypercycle(0.5), c=0.9)
        with pytest.raises(DomainError):
            builtin_route("horospherical", transversal=Transversal.hypercycle(0.5))
        with pytest.raises(DomainError):
            builtin_route("pencil", transversal=Transversal.hypercycle(0.5))


TRANSVERSALS = [Transversal.geodesic(), Transversal.hypercycle(0.6)]


class TestRandomRoutes:
    @pytest.mark.parametrize("tr", TRANSVERSALS)
    def test_same_seed_reproduces(self, tr):
        a = random_valid_route(tr, seed=7)
        b = random_valid_route(tr, seed=7)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.h, b.h)
        c = random_valid_route(tr, seed=8)
        assert not np.array_equal(a.h, c.h)

    @pytest.mark.parametrize("tr", TRANSVERSALS)
    def test_draws_validate(self, tr):
        from umbilic import validate_c0

        for seed in range(10):
            assert validate_c0(random_valid_route(tr, seed=seed)).valid

    @pytest.mark.parametrize("tr", TRANSVERSALS)
    def test_draws_synthesize_clean(self, tr):
        for seed in range(3):
            assert verify_disjoint(synthesize(random_valid_route(tr, seed=seed))).clean

    @pytest.mark.parametrize("tr", TRANSVERSALS)
    def test_perturbed_draws_fail_inside_the_window(self, tr):
        from umbilic import validate_c0

        for seed in range(10):
            route, window = perturbed_invalid_route(tr, seed=seed)
            assert route.window[0] <= window[0] < window[1] <= route.window[1]
            verdict = validate_c0(route)
            assert not verdict.valid
            pairs = [v for v in verdict.violations if v.kind == "pair"]
            assert any(
                v.t1 <= window[1] and window[0] <= v.t2 for v in pairs
            )

    def test_horocycle_has_no_random_family(self):
        with pytest.raises(DomainError):
            random_valid_route(Transversal.horocycle(1.0))


class TestAgreementSweep:
    @pytest.mark.parametrize("family", ["geodesic", "hypercycle"])
    def test_predicate_matches_oracle(self, family):
        stats = run_disjointness_agreement(family, n=2000, seed=42)
        assert stats.mismatches == ()
        assert stats.agreements == stats.compared
        assert stats.compared > 1500

    def test_deterministic(self):
        a = run_disjointness_agreement("geodesic", n=200, seed=5)
        b = run_disjointness_agreement("geodesic", n=200, seed=5)
        assert a == b

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            run_disjointness_agreement("horocycle")


# --------------------------------------------------------------------------
# The audit against its pair-by-pair definition


def _scale_exponent(transversal, t):
    """k with 2**k the scale of the leaf at t on the transversal."""
    if transversal.kind == TransversalKind.HOROCYCLE:
        return math.frexp(transversal.height)[1]
    return round(t * transversal.curvature_bound / math.log(2.0))


def _scaled_leaf(leaf, e):
    """The leaf scaled by 2**e, with its direction and angle kept as stored."""
    shape = copy.copy(leaf.shape)
    names = ("cx", "cy", "radius") if isinstance(shape, Circle) else ("x0", "y0")
    for name in names:
        object.__setattr__(shape, name, math.ldexp(getattr(shape, name), e))
    scaled = copy.copy(leaf)
    object.__setattr__(scaled, "shape", shape)
    return scaled


def _reference_verify_disjoint(slice_, boundary_tol=1e-9, tangency_tol=1e-9):
    """The audit by its definition: every pair through carrier_contact,
    after scaling both leaves by 2**-k of the lower one, O(n^2) Python."""
    entries = slice_.all_entries()
    intersecting = []
    tangent = []
    pair_count = 0
    scaled = {}  # (index, exponent) -> scaled leaf, to keep the loop fast
    for i in range(len(entries)):
        t1, leaf1, _ = entries[i]
        k = _scale_exponent(slice_.transversal, t1)
        for j in range(i + 1, len(entries)):
            t2, leaf2, _ = entries[j]
            pair_count += 1
            for index, leaf in ((i, leaf1), (j, leaf2)):
                if (index, k) not in scaled:
                    scaled[index, k] = _scaled_leaf(leaf, -k)
            contact = carrier_contact(scaled[i, k], scaled[j, k])
            if contact.kind == "coincident":
                intersecting.append(
                    PairContact(t1, t2, "coincident", math.nan, math.nan)
                )
                continue
            upper = [(x, y) for x, y in contact.points if y > boundary_tol]
            if not upper:
                continue
            x, y = upper[0]
            x, y = math.ldexp(x, k), math.ldexp(y, k)
            if contact.kind == "tangent":
                tangent.append(PairContact(t1, t2, "tangent", x, y))
            else:
                intersecting.append(PairContact(t1, t2, "transverse", x, y))
    return DisjointnessReport(
        clean=not intersecting and not tangent,
        pair_count=pair_count,
        intersecting=tuple(intersecting),
        tangent=tuple(tangent),
    )


def _report_key(report):
    def contacts(items):
        return [(repr(c.t1), repr(c.t2), c.kind, repr(c.x), repr(c.y)) for c in items]

    return (
        report.clean,
        report.pair_count,
        contacts(report.intersecting),
        contacts(report.tangent),
    )


def assert_matches_reference(slice_):
    report = verify_disjoint(slice_)
    assert _report_key(report) == _report_key(_reference_verify_disjoint(slice_))
    return report


@st.composite
def audit_slices(draw):
    """Leaf families from every transversal: random valid and perturbed
    routes at offsets up to +-45 (hypercycles optionally extended), and
    horocycle routes mixing vertical lines with circles on the horocycle."""
    kind = draw(st.sampled_from(["geodesic", "hypercycle", "horocycle"]))
    n = draw(st.integers(2, 241))
    seed = draw(st.integers(0, 2**16))
    if kind == "horocycle":
        height = 2.0 ** draw(st.floats(-30, 30))
        x0 = draw(st.floats(-40, 40))
        t = x0 + height * np.linspace(-4.0, 4.0, n)
        levels = np.random.default_rng(seed).choice([0.0, -0.25, -0.5, -0.9, -1.0], n)
        route = Route(Transversal.horocycle(height), t, levels)
        return synthesize(route, force=True)
    tr = (
        Transversal.geodesic()
        if kind == "geodesic"
        else Transversal.hypercycle(draw(st.floats(0.1, 1.45)))
    )
    offset = draw(st.floats(-45, 45))
    window = (-2.0 + offset, 2.0 + offset)
    if draw(st.booleans()):
        route = random_valid_route(tr, window=window, n=n, seed=seed)
    else:
        route, _ = perturbed_invalid_route(tr, window=window, n=n, seed=seed)
    slice_ = synthesize(route, force=True)
    if kind == "hypercycle" and draw(st.booleans()):
        slice_ = extend_slice(slice_, 4)
    return slice_


@st.composite
def leaf_tuples(draw):
    """Two to four leaves of one transversal, with the boundary angles at
    the ends of their range (lines, horocycles) and crossings a few ulps
    apart (near-coincident and near-tangent pairs) drawn often."""
    phi = draw(st.one_of(st.none(), st.floats(0.1, 1.45)))
    if phi is None:
        tr, L, lo, hi = Transversal.geodesic(), 1.0, 0.0, math.pi
    else:
        tr, L = Transversal.hypercycle(phi), math.sin(phi)
        lo, hi = math.pi / 2 - phi, math.pi / 2 + phi
    beta = st.one_of(st.sampled_from([lo, hi, math.pi / 2]), st.floats(lo, hi))
    ts = [draw(st.floats(-45, 45))]
    for _ in range(draw(st.integers(1, 3))):
        step = draw(
            st.one_of(
                st.integers(0, 4).map(lambda k: k * math.ulp(ts[-1])),
                st.floats(1e-9, 3.0),
            )
        )
        ts.append(ts[-1] + step)
    entries = []
    previous = None
    for t in ts:
        b = previous if previous is not None and draw(st.booleans()) else draw(beta)
        s = math.exp(t * L)
        leaf = (
            leaf_orthogonal_to_geodesic(s, b)
            if phi is None
            else leaf_orthogonal_to_hypercycle(phi, s, b)
        )
        entries.append((t, leaf))
        previous = b
    return FoliationSlice(tr, tuple(entries))


def _switch_slices(lower, cy, r, x_lo, x_hi, t1):
    """Pairs of circle leaves, the upper one centred at x in [x_lo, x_hi],
    around the float x where the reference audit switches verdict.

    Bisects x over floats; returns the slices for the 17 floats around
    the switch, or none when the verdict does not switch in the range.
    """

    def slice_at(x):
        leaf = Leaf(Circle(x, cy, r), math.acos(cy / r))
        return slice_of([(t1, lower), (t1 + 0.1, leaf)])

    def flagged(x):
        return not _reference_verify_disjoint(slice_at(x)).clean

    if flagged(x_lo) == flagged(x_hi):
        return []
    below = flagged(x_lo)
    while (mid := 0.5 * (x_lo + x_hi)) not in (x_lo, x_hi):
        if flagged(mid) == below:
            x_lo = mid
        else:
            x_hi = mid
    xs = [x_lo]
    for direction in (-math.inf, math.inf):
        x = x_lo
        for _ in range(8):
            x = math.nextafter(x, direction)
            xs.append(x)
    return [slice_at(x) for x in xs]


class TestVerifyDisjointDifferential:
    """verify_disjoint must give, bit for bit, the report of the
    pair-by-pair loop over the scaled pairs."""

    @settings(max_examples=40)
    @given(audit_slices())
    def test_routes_match_reference(self, slice_):
        assert_matches_reference(slice_)

    @settings(max_examples=300)
    @given(leaf_tuples())
    def test_leaf_tuples_match_reference(self, slice_):
        assert_matches_reference(slice_)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: synthesize(builtin_route("pencil", window=(-3, 3)), force=True),
            lambda: synthesize(
                builtin_route("pencil", window=(-12, 12), n=241), force=True
            ),
            lambda: synthesize(builtin_route("horospherical", n=61)),
            lambda: synthesize(builtin_route("custom_constant_max", n=41)),
            lambda: synthesize(
                builtin_route(
                    "custom_constant_max", transversal=Transversal.hypercycle(0.9), n=41
                )
            ),
            lambda: synthesize(builtin_route("totally_geodesic", n=41)),
            lambda: synthesize(
                Route(Transversal.horocycle(1.0), np.linspace(-2, 2, 41), np.zeros(41))
            ),
            lambda: FoliationSlice(Transversal.geodesic(), ()),
            lambda: slice_of([(0.0, Leaf(Circle(0.0, 0.0, 1.0), math.pi / 2))]),
        ],
        ids=[
            "pencil-3-3", "pencil-12-12", "horospherical", "constant-max-geodesic",
            "constant-max-hypercycle", "totally-geodesic", "zero-horocycle",
            "empty", "single-leaf",
        ],
    )
    def test_fixed_families_match_reference(self, make):
        assert_matches_reference(make())

    def test_duplicated_leaves_are_coincident(self):
        leaf = leaf_orthogonal_to_geodesic(1.5, 1.1)
        line = leaf_orthogonal_to_geodesic(2.0, math.pi)
        report = assert_matches_reference(
            slice_of([(0.1, leaf), (0.1, leaf), (0.5, line), (0.6, line), (0.7, leaf)])
        )
        kinds = [(c.t1, c.t2, c.kind) for c in report.intersecting]
        assert (0.1, 0.1, "coincident") in kinds
        assert (0.5, 0.6, "coincident") in kinds

    def test_lines_crossing_circles_are_flagged(self):
        # Horizontal lines low on the axis under bigger circles: every
        # such pair crosses, and only carrier_contact can say where.
        slice_ = slice_of(
            [(t, leaf_orthogonal_to_geodesic(math.exp(t), math.pi)) for t in (0.0, 0.3)]
            + [(t, leaf_orthogonal_to_geodesic(math.exp(t), 0.8)) for t in (1.0, 1.4)]
        )
        report = assert_matches_reference(slice_)
        assert len(report.intersecting) == 4

    def test_crossings_at_the_boundary_tolerance(self):
        # Two circles crossing just above or below y = boundary_tol: the
        # screen's rounding guard is all that keeps these pairs exact.
        rng = np.random.default_rng(0)
        switches = 0
        for _ in range(100):
            m = int(rng.integers(-60, 61))
            r1, r2 = rng.uniform(0.5, 2.0, 2)
            cy1, cy2 = rng.uniform(-0.9, 0.9, 2) * (r1, r2)
            lower = Leaf(
                Circle(0.0, math.ldexp(cy1, m), math.ldexp(r1, m)), math.acos(cy1 / r1)
            )
            # The upper circle's left end meets the lower one's right end.
            x = math.sqrt(r1 * r1 - cy1 * cy1) + math.sqrt(r2 * r2 - cy2 * cy2)
            slices = _switch_slices(
                lower, math.ldexp(cy2, m), math.ldexp(r2, m),
                math.ldexp(x - 1e-6, m), math.ldexp(x + 1e-6, m), m * math.log(2.0),
            )
            switches += bool(slices)
            for slice_ in slices:
                assert_matches_reference(slice_)
        assert switches >= 40

    @pytest.mark.parametrize("gap", [0.5e-9, 1e-9 * (1 - 1e-12), 1e-9, 1e-9 * (1 + 1e-12), 2e-9])
    @pytest.mark.parametrize("beta2", [0.3, math.pi / 2, 2.5])
    def test_tangencies_at_the_tolerance(self, gap, beta2):
        # Leaves orthogonal to the axis at nearly the same height touch
        # there, up to a gap of about the height difference.
        leaf1 = leaf_orthogonal_to_geodesic(1.0, 1.0)
        for step in range(-4, 5):
            s2 = 1.0 + gap + step * math.ulp(1.0)
            leaf2 = leaf_orthogonal_to_geodesic(s2, beta2)
            assert_matches_reference(slice_of([(0.0, leaf1), (math.log(s2), leaf2)]))

    @pytest.mark.parametrize("cells", [1, 7, 100])
    def test_block_size_does_not_change_the_report(self, cells, monkeypatch):
        route, _ = perturbed_invalid_route(Transversal.hypercycle(0.9), n=41, seed=4)
        slice_ = extend_slice(synthesize(route, force=True), 3)
        expected = _report_key(verify_disjoint(slice_))
        monkeypatch.setattr(foliation, "_AUDIT_BLOCK_CELLS", cells)
        assert _report_key(verify_disjoint(slice_)) == expected

    def test_valid_routes_recompute_few_pairs(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return carrier_contact(*args)

        monkeypatch.setattr(foliation, "carrier_contact", counting)
        for tr in (Transversal.geodesic(), Transversal.hypercycle(0.9)):
            route = random_valid_route(tr, window=(-42.0, -38.0), n=241, seed=1)
            report = verify_disjoint(synthesize(route))
            assert report.clean
        # Two routes of 241 leaves: at most 1 % of their pairs.
        assert len(calls) < 0.01 * 2 * (241 * 240 // 2)


class TestAuditScaleAndShift:
    """The audit's tolerances are relative to the pair's scale, so moving
    a route along its transversal (a Euclidean scaling) keeps the verdict."""

    @settings(max_examples=40)
    @given(
        st.one_of(st.none(), st.floats(0.1, 1.45)),
        st.integers(0, 2**16),
        st.integers(2, 61),
        st.floats(-40, 40),
    )
    def test_valid_route_verdict_is_shift_invariant(self, phi, seed, n, shift):
        tr = Transversal.geodesic() if phi is None else Transversal.hypercycle(phi)
        route = random_valid_route(tr, n=n, seed=seed)
        moved = Route(tr, route.t + shift, route.h)
        report = verify_disjoint(synthesize(route, force=True))
        moved_report = verify_disjoint(synthesize(moved, force=True))
        assert report.clean and moved_report.clean

    def test_small_constant_route_audits_clean(self):
        route = builtin_route("constant", window=(-30.0, -25.0), c=-0.3)
        report = verify_disjoint(synthesize(route))
        assert report.clean
        assert report.pair_count == 121 * 120 // 2

    def test_small_constant_route_cli_exits_0(self, tmp_path, capsys):
        doc = {
            "transversal": {"kind": "geodesic"},
            "closed_form": {"name": "constant", "params": {"c": -0.3}},
            "window": [-30.0, -25.0],
        }
        path = tmp_path / "route.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["audit", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["clean"] is True

    @pytest.mark.parametrize("phi", [None, 0.5, 1.1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_perturbed_route_at_minus_40_crosses_in_its_burst(self, phi, seed):
        tr = Transversal.geodesic() if phi is None else Transversal.hypercycle(phi)
        route, (lo, hi) = perturbed_invalid_route(
            tr, window=(-42.0, -38.0), n=121, seed=seed
        )
        report = verify_disjoint(synthesize(route, force=True))
        assert any(c.t1 <= hi and lo <= c.t2 for c in report.intersecting)
