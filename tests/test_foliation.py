import collections
import copy
import json
import math
from fractions import Fraction
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from umbilic import (
    Circle,
    DomainError,
    FoliationSlice,
    GeometryError,
    InvalidRouteError,
    Leaf,
    LeafKind,
    Line,
    NotALeafError,
    Route,
    Transversal,
    builtin_route,
    extend_slice,
    ideal_endpoints,
    perturbed_invalid_route,
    random_valid_route,
    render_svg,
    run_disjointness_agreement,
    synthesize,
    validate,
    validate_c0,
    verify_disjoint,
)
from umbilic import foliation, leaves
from umbilic.cli import main
from umbilic.foliation import AgreementStats, DisjointnessReport, PairContact
from umbilic.halfplane import TransversalKind
from umbilic.leaves import (
    BOUNDARY_TOL,
    TANGENCY_TOL,
    CarrierContact,
    _geodesic_slack,
    _hypercycle_gap,
    _math_map,
    _orthogonal_leaves,
    _ray,
    carrier_contact,
    leaf_orthogonal_to_geodesic,
    leaf_orthogonal_to_hypercycle,
    upper_contact,
)
from umbilic.validation import _effective_phi, profile_inverse


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


def slice_of(rows, transversal=Transversal.geodesic()):
    """A slice of sampled leaves at the (t, h) rows, in order."""
    t, h = (list(column) for column in zip(*rows)) if rows else ([], [])
    return FoliationSlice(transversal, t, h, [False] * len(t))


def axis_row(cy, r):
    """The geodesic slice's row (t, h) of the axis-centred circle of
    centre height cy and radius r: it crosses the axis at its apex
    e^t = cy + r, and h = -cos(beta) = -cy / r."""
    return math.log(cy + r), -cy / r


#: Ray angles just below pi/2, where a level within the band's tolerance
#: can leave a line further off its angle than ``Leaf`` accepts.
STEEP_PHIS = [math.pi / 2 - 1e-6, 1.5707949433218795, math.pi / 2 - 1e-9, 1.5707963267948963]


@st.composite
def hand_built_slices(draw):
    """Slices of hand-picked rows, which ``synthesize`` would not clip into
    the band: the geodesic, hypercycles with phi near pi/2 and across
    (0, pi/2), and horocycles; levels at +-bound, +-(bound + 1e-12)
    clipped to |h| <= 1, 0 and uniform; t in [-50, 50].  Levels below
    1e-100 in size are 0: a horocycle circle of radius height / |h| stays
    clear of the audit's float-range refusals, as t in [-50, 50] keeps
    the other crossings."""
    kind = draw(st.sampled_from(list(TransversalKind)))
    if kind == TransversalKind.GEODESIC:
        tr = Transversal.geodesic()
    elif kind == TransversalKind.HYPERCYCLE:
        tr = Transversal.hypercycle(
            draw(st.one_of(st.sampled_from(STEEP_PHIS), st.floats(0.01, 1.56)))
        )
    else:
        tr = Transversal.horocycle(draw(st.sampled_from([1e-3, 0.5, 1.0, 3.0])))
    bound = 1.0 if kind == TransversalKind.HOROCYCLE else tr.curvature_bound
    edge = min(bound + 1e-12, 1.0)
    level = st.one_of(
        st.sampled_from([bound, -bound, edge, -edge, 0.0]),
        st.floats(-bound, bound),
        st.floats(-1.0, 1.0),
    ).map(lambda x: x if abs(x) >= 1e-100 else 0.0)
    n = draw(st.integers(1, 8))
    t = sorted(draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n)))
    h = draw(st.lists(level, min_size=n, max_size=n))
    if kind == TransversalKind.HOROCYCLE and draw(st.booleans()):  # lines and circles only
        h = [-abs(x) for x in h]
    return slice_of(list(zip(t, h)), tr)


class TestVerifyDisjoint:
    def test_crossing_circles_flagged(self):
        report = verify_disjoint(
            slice_of([axis_row(-1.0, 2.0), axis_row(0.35, 0.7)])
        )
        assert not report.clean
        assert report.pair_count == 1
        [contact] = report.intersecting
        assert contact.kind == "transverse"
        assert contact.y == pytest.approx(0.975, abs=1e-9)

    def test_interior_tangency_flagged_separately(self):
        report = verify_disjoint(
            slice_of([axis_row(0.0, 2.0), axis_row(1.0, 1.0)])
        )
        assert not report.clean
        assert not report.intersecting
        [contact] = report.tangent
        assert (contact.x, contact.y) == pytest.approx((0.0, 2.0), abs=1e-9)

    def test_boundary_tangency_is_fine(self):
        report = verify_disjoint(
            slice_of([axis_row(0.5, 0.5), axis_row(1.0, 1.0)])
        )
        assert report.clean

    def test_coincident_carriers_count_as_intersecting(self):
        row = axis_row(0.0, 1.0)
        report = verify_disjoint(slice_of([row, row]))
        assert not report.clean
        [contact] = report.intersecting
        assert contact.kind == "coincident"
        assert math.isnan(contact.x)

    def test_nested_geodesics_are_clean(self):
        report = verify_disjoint(
            slice_of([axis_row(0.0, 1.0), axis_row(0.0, 2.0)])
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

    def test_levels_beyond_the_band_are_refused(self):
        # sin(0.5) < 0.9: no leaf at that level crosses the phi = 0.5 ray
        # orthogonally, so the audit refuses the slice as leaf_table does.
        slice_ = slice_of([(0.0, 0.9), (1.0, 0.9), (2.0, -0.9)], Transversal.hypercycle(0.5))
        message = "no leaf with angle 2.69.* crosses the phi=0.5 ray orthogonally"
        with pytest.raises(DomainError, match=message):
            foliation.leaf_table(slice_)
        with pytest.raises(DomainError, match=message):
            verify_disjoint(slice_)

    def test_a_line_off_its_angle_is_refused(self):
        # sin phi = 1 - 9.6e-13, so the level 1 lies within the band's
        # tolerance, but its line runs 1.4e-6 off beta = pi.
        slice_ = slice_of(
            [(0.0, -0.5), (1.0, 1.0), (2.0, 1.0)], Transversal.hypercycle(1.5707949433218795)
        )
        message = "angle 3.141592653589793 does not match line direction 3.141591270116776"
        with pytest.raises(NotALeafError, match=message):
            foliation.leaf_table(slice_)
        with pytest.raises(NotALeafError, match=message):
            verify_disjoint(slice_)

    @pytest.mark.parametrize(
        "rows, transversal, message",
        [
            (
                [(0.0, 0.0), (710.0, 0.0)],
                Transversal.geodesic(),
                "the crossing at t=710.0 leaves the float range",
            ),
            (
                [(-800.0, 0.0), (710.0, 0.0)],
                Transversal.geodesic(),
                "crossing height must be positive, got 0.0",
            ),
            (
                [(0.0, 0.0), (1.0, -0.9), (1500.0, 0.0)],
                Transversal.hypercycle(0.5),
                "no leaf with angle 0.45102681179626236 crosses the phi=0.5 ray orthogonally",
            ),
            (
                [(0.0, 0.0), (1500.0, 0.0), (1600.0, -0.9)],
                Transversal.hypercycle(0.5),
                "the crossing at t=1500.0 leaves the float range",
            ),
        ],
    )
    def test_refusal_order_across_an_overflowing_crossing(self, rows, transversal, message):
        # e^(t L) overflows on the last rows.  A row refused before them
        # still raises its own error, and every reader of the slice meets
        # the same refusal first: else the first overflowing crossing's.
        slice_ = slice_of(rows, transversal)

        def refusal(check):
            try:
                check(slice_)
            except GeometryError as exc:
                return type(exc), str(exc)
            return None

        refusals = {refusal(check) for check in (foliation.leaf_table, verify_disjoint, render_svg)}
        assert refusals == {(DomainError, message)}

    @settings(max_examples=300, deadline=None)
    @given(hand_built_slices())
    def test_the_audit_refuses_what_leaf_table_refuses(self, slice_):
        def refusal(check):
            try:
                check(slice_)
            except GeometryError as exc:
                return type(exc), str(exc)
            return None

        assert refusal(verify_disjoint) == refusal(foliation.leaf_table)


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

    def test_zero_count_is_a_noop(self):
        slice_ = self.make_slice()
        assert extend_slice(slice_, 0) is slice_

    def test_empty_slice_is_a_noop(self):
        empty = slice_of([], Transversal.hypercycle(0.9))
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


def _forced_slice(tr, h_every, seed=0, n=30):
    """A forced slice over ``tr`` at random levels, every ``h_every``-th
    sample at the top of the band (a line on a geodesic or hypercycle)."""
    rng = np.random.default_rng(seed)
    bound = tr.curvature_bound
    h = rng.uniform(-bound, bound, n)
    h[::h_every] = bound
    return synthesize(Route(tr, np.linspace(-3.0, 3.0, n), h), force=True)


def _carrier_fields(slice_):
    return np.array([
        [
            getattr(leaf.shape, name, math.nan)
            for name in ("cx", "cy", "radius", "x0", "y0", "dx", "dy")
        ]
        for _, leaf, _ in slice_.all_entries()
    ])


@st.composite
def leaf_rows(draw):
    """A transversal of each kind, and one row (t, h) of a slice over it."""
    kind = draw(st.sampled_from(list(TransversalKind)))
    if kind == TransversalKind.HOROCYCLE:
        tr = Transversal.horocycle(2.0 ** draw(st.floats(-20, 20)))
        level = st.one_of(st.just(0.0), st.floats(-1.0, -1e-6))
    else:
        phi = None if kind == TransversalKind.GEODESIC else draw(st.floats(0.1, 1.45))
        tr = Transversal.geodesic() if phi is None else Transversal.hypercycle(phi)
        bound = tr.curvature_bound
        level = st.one_of(st.sampled_from([-bound, bound, 0.0]), st.floats(-bound, bound))
    return tr, draw(st.floats(-40, 40)), draw(level)


class TestSliceTable:
    """A slice is its (t, h, extension) rows, and one leaf map builds
    every leaf from them."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _forced_slice(Transversal.geodesic(), 5),
            # Lines at both ends, so the extension leaves are lines too.
            lambda: extend_slice(_forced_slice(Transversal.hypercycle(0.9), 29, n=59), 3),
            lambda: synthesize(
                Route(
                    Transversal.horocycle(2.0),
                    np.linspace(-3.0, 3.0, 30),
                    np.resize([0.0, -0.3, -1.0, -0.5], 30),
                ),
                force=True,
            ),
        ],
        ids=["geodesic", "hypercycle-extended", "horocycle"],
    )
    def test_carrier_columns_are_the_entries(self, make):
        slice_ = make()
        columns, beta, _ = foliation._slice_carriers(slice_, 0)
        got = np.column_stack(columns)
        want = _carrier_fields(slice_)
        lines = np.isnan(want[:, 2])
        assert lines.any() and not lines.all()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        want_beta = np.array([leaf.beta for _, leaf, _ in slice_.all_entries()])
        assert np.array_equal(beta.view(np.int64), want_beta.view(np.int64))

    @given(leaf_rows(), st.integers(-60, 60))
    def test_scaled_leaf_map_is_exact(self, row, e):
        tr, t, h = row
        leaf = foliation._leaf_map(tr)(t, h)
        scaled = _scaled_leaf_map(tr, e)(t, h)
        assert type(scaled.shape) is type(leaf.shape)
        assert repr(scaled.beta) == repr(leaf.beta)
        for name, value in vars(leaf.shape).items():
            if name in ("cx", "cy", "radius", "x0", "y0"):
                value = math.ldexp(value, e)
            assert repr(getattr(scaled.shape, name)) == repr(value)

    @pytest.mark.parametrize(
        "t, h, extension",
        [
            ([0.0, 1.0], [0.0], [False, False]),
            ([0.0, 1.0], [0.0, 0.0], [False]),
            ([[0.0, 1.0]], [[0.0, 0.0]], [[False, False]]),
            ([1.0, 0.0], [0.0, 0.0], [False, False]),
            ([0.0, math.nan], [0.0, 0.0], [False, False]),
            ([0.0, 1.0], [0.0, 1.5], [False, False]),
            ([0.0, 1.0], [-1.0 - 1e-15, 0.0], [False, False]),
            ([0.0, 1.0], [0.0, math.nan], [False, False]),
            ([0.0, 1.0], [math.inf, 0.0], [False, False]),
        ],
        ids=[
            "short-h", "short-extension", "not-1-d", "t-descending", "t-nan",
            "h-above-1", "h-below-minus-1", "h-nan", "h-inf",
        ],
    )
    def test_bad_columns_are_refused(self, t, h, extension):
        with pytest.raises(DomainError):
            FoliationSlice(Transversal.geodesic(), t, h, extension)

    @pytest.mark.parametrize(
        "t, row", [([0.0, 1.0, math.inf, math.inf], 2), ([-math.inf, 0.0], 0), ([0.0, math.nan], 1)]
    )
    def test_the_first_row_whose_t_is_not_finite_is_named(self, t, row):
        with pytest.raises(DomainError, match=rf"^slice row {row} has t=(-?inf|nan), "):
            FoliationSlice(Transversal.geodesic(), t, [0.0] * len(t), [False] * len(t))

    def test_rows_are_sorted_with_sampled_leaves_first_on_ties(self):
        # A one-sample slice extends by a step of 0.5 on each side; at
        # t = 1e17, whose ulp is 16, the extension rows tie with the sample.
        tr = Transversal.hypercycle(0.9)
        slice_ = extend_slice(slice_of([(0.0, 0.2)], tr), 1)
        assert slice_.t.tolist() == [-0.5, 0.0, 0.5]
        assert slice_.extension.tolist() == [True, False, True]
        assert slice_.h.tolist() == [0.2, 0.2, 0.2]
        tied = extend_slice(slice_of([(1e17, 0.2)], tr), 1)
        assert tied.t.tolist() == [1e17] * 3
        assert tied.extension.tolist() == [False, True, True]


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
            assert route.t[0] <= window[0] < window[1] <= route.t[-1]
            verdict = validate_c0(route)
            assert not verdict.valid
            pairs = [v for v in verdict.violations if v.kind == "pair"]
            assert any(
                v.t1 <= window[1] and window[0] <= v.t2 for v in pairs
            )

    def test_horocycle_has_no_random_family(self):
        with pytest.raises(DomainError):
            random_valid_route(Transversal.horocycle(1.0))

    # Each of these used to end in a numpy error or warning, or, for a
    # negative margin, in a drawn route that fails validate_c0.
    @pytest.mark.parametrize(
        "draw, kwargs, name",
        [
            (random_valid_route, dict(n=0), "n"),
            (perturbed_invalid_route, dict(n=0), "n"),
            (perturbed_invalid_route, dict(n=1), "n"),
            (random_valid_route, dict(margin=5.0), "margin"),
            (perturbed_invalid_route, dict(margin=math.nan), "margin"),
            (random_valid_route, dict(margin=-1.0, n=61, seed=3), "margin"),
            (random_valid_route, dict(window=(0.0, math.inf)), "window"),
            (perturbed_invalid_route, dict(window=(1.0, -1.0)), "window"),
        ],
    )
    def test_arguments_are_checked(self, draw, kwargs, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{name} "):
                draw(Transversal.geodesic(), **kwargs)

    @pytest.mark.parametrize("tr", TRANSVERSALS)
    def test_smallest_draws(self, tr):
        # One sample for a valid draw, two for a perturbed one, and a
        # margin just inside 1.8 L, where the slope range is nearly empty.
        assert random_valid_route(tr, n=1).n == 1
        assert not validate(perturbed_invalid_route(tr, n=2)[0]).valid
        L = tr.curvature_bound
        assert validate(random_valid_route(tr, margin=1.8 * L * (1 - 1e-9))).valid


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

    def test_negative_count(self):
        with pytest.raises(DomainError):
            run_disjointness_agreement("geodesic", n=-5)


# --------------------------------------------------------------------------
# Carrier contact, one pair at a time


def _reference_contact(leaf1, leaf2):
    """``carrier_contact`` by its definition, one pair at a time in Python
    floats: the reference the audit's and the sweep's checks use, so that
    they stay independent of the columnar kernel (and fast: a one-row
    numpy call per pair costs about 50 times as much)."""
    s1, s2 = leaf1.shape, leaf2.shape
    if isinstance(s1, Circle) and isinstance(s2, Circle):
        return _reference_circle_circle(s1, s2)
    if isinstance(s1, Circle):
        return _reference_circle_line(s1, s2)
    if isinstance(s2, Circle):
        return _reference_circle_line(s2, s1)
    return _reference_line_line(s1, s2)


def _reference_circle_circle(c1, c2):
    dx, dy = c2.cx - c1.cx, c2.cy - c1.cy
    d = math.hypot(dx, dy)
    if d <= TANGENCY_TOL and abs(c1.radius - c2.radius) <= TANGENCY_TOL:
        return CarrierContact("coincident")
    gap = min(abs(d - (c1.radius + c2.radius)), abs(d - abs(c1.radius - c2.radius)))
    if d == 0.0:
        return CarrierContact("none")
    ux, uy = dx / d, dy / d
    a = (c1.radius**2 - c2.radius**2 + d * d) / (2.0 * d)
    if gap <= TANGENCY_TOL:
        px, py = c1.cx + a * ux, c1.cy + a * uy
        return CarrierContact("tangent", ((px, py),))
    disc = c1.radius**2 - a * a
    if disc <= 0.0:
        return CarrierContact("none")
    root = math.sqrt(disc)
    mx, my = c1.cx + a * ux, c1.cy + a * uy
    return CarrierContact(
        "transverse",
        ((mx - root * uy, my + root * ux), (mx + root * uy, my - root * ux)),
    )


def _reference_circle_line(c, ln):
    # Project the center onto the line; the offset decides everything.
    relx, rely = c.cx - ln.x0, c.cy - ln.y0
    u = relx * ln.dx + rely * ln.dy
    fx, fy = ln.x0 + u * ln.dx, ln.y0 + u * ln.dy
    dist = math.hypot(c.cx - fx, c.cy - fy)
    if abs(dist - c.radius) <= TANGENCY_TOL:
        return CarrierContact("tangent", ((fx, fy),))
    if dist >= c.radius:
        return CarrierContact("none")
    half = math.sqrt(c.radius**2 - dist * dist)
    return CarrierContact(
        "transverse",
        (
            (fx - half * ln.dx, fy - half * ln.dy),
            (fx + half * ln.dx, fy + half * ln.dy),
        ),
    )


def _reference_line_line(l1, l2):
    cross = l1.dx * l2.dy - l1.dy * l2.dx
    if abs(cross) <= 1e-14:
        # Parallel: separation is the cross product of the offset with the direction.
        off = (l2.x0 - l1.x0) * l1.dy - (l2.y0 - l1.y0) * l1.dx
        if abs(off) <= TANGENCY_TOL:
            return CarrierContact("coincident")
        return CarrierContact("none")
    u = ((l2.x0 - l1.x0) * l2.dy - (l2.y0 - l1.y0) * l2.dx) / cross
    return CarrierContact("transverse", ((l1.x0 + u * l1.dx, l1.y0 + u * l1.dy),))


def _kernel_rows(monkeypatch):
    """Record how many rows each call of the contact kernel takes from the
    audit and the sweep."""
    rows = []
    kernel = foliation._carrier_contacts

    def counting(*columns):
        rows.append(columns[0].size)
        return kernel(*columns)

    monkeypatch.setattr(foliation, "_carrier_contacts", counting)
    return rows


# --------------------------------------------------------------------------
# The sweep against its pair-by-pair definition


def _reference_run_disjointness_agreement(
    family: str, n: int = 10000, seed: int = 0
) -> AgreementStats:
    """The sweep as a loop over pairs, one draw at a time."""
    if family not in ("geodesic", "hypercycle"):
        raise DomainError(f"family must be geodesic or hypercycle, got {family!r}")
    rng = np.random.default_rng(seed)
    compared = agreements = skipped_margin = skipped_tangent = 0
    mismatches = []
    for _ in range(n):
        s1 = float(np.exp(rng.uniform(math.log(0.2), math.log(2.0))))
        s2 = s1 * float(np.exp(rng.uniform(math.log(1.001), math.log(3.0))))
        if family == "geodesic":
            beta1, beta2 = _reference_draw_betas(rng, 0.0, math.pi)
            slack = _geodesic_slack(
                s1, s2, math.cos(beta1), math.cos(beta2),
                math.tan(beta1 / 2.0), math.tan(beta2 / 2.0),
            )
            leaf1 = leaf_orthogonal_to_geodesic(s1, beta1)
            leaf2 = leaf_orthogonal_to_geodesic(s2, beta2)
            params = (s1, beta1, s2, beta2)
        else:
            phi = rng.uniform(0.1, math.pi / 2 - 0.02)
            beta1, beta2 = _reference_draw_betas(
                rng, math.pi / 2 - phi, math.pi / 2 + phi
            )
            slack = _hypercycle_gap(
                s1, s2, math.sin(phi), math.cos(beta1), math.cos(beta2),
                math.cos(phi + beta1), math.cos(phi + beta2),
            )
            leaf1 = leaf_orthogonal_to_hypercycle(phi, s1, beta1)
            leaf2 = leaf_orthogonal_to_hypercycle(phi, s2, beta2)
            params = (phi, s1, beta1, s2, beta2)
        if math.isfinite(slack) and abs(slack) < foliation._SLACK_MARGIN:
            skipped_margin += 1
            continue
        contact = _reference_contact(leaf1, leaf2)
        if contact.kind == "tangent":
            skipped_tangent += 1
            continue
        compared += 1
        if (slack >= 0.0) == (upper_contact(contact) is None):
            agreements += 1
        else:
            mismatches.append(params)
    return AgreementStats(
        family=family,
        total=n,
        compared=compared,
        agreements=agreements,
        skipped_margin=skipped_margin,
        skipped_tangent=skipped_tangent,
        mismatches=tuple(mismatches),
    )


def _reference_draw_betas(rng, lo: float, hi: float) -> tuple[float, float]:
    betas = []
    for _ in range(2):
        r = rng.uniform()
        inside = rng.uniform(lo + 0.02, hi - 0.02)
        if r < 0.04:
            betas.append(lo)
        elif r < 0.08:
            betas.append(hi)
        else:
            betas.append(inside)
    return betas[0], betas[1]


def _reference_draws(family: str, n: int, seed: int) -> list[tuple]:
    """The loop's draws alone, as rows ``(phi,) s1, beta1, s2, beta2``."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        s1 = float(np.exp(rng.uniform(math.log(0.2), math.log(2.0))))
        s2 = s1 * float(np.exp(rng.uniform(math.log(1.001), math.log(3.0))))
        if family == "geodesic":
            beta1, beta2 = _reference_draw_betas(rng, 0.0, math.pi)
            rows.append((s1, beta1, s2, beta2))
        else:
            phi = rng.uniform(0.1, math.pi / 2 - 0.02)
            beta1, beta2 = _reference_draw_betas(rng, math.pi / 2 - phi, math.pi / 2 + phi)
            rows.append((phi, s1, beta1, s2, beta2))
    return rows


FAMILIES = ["geodesic", "hypercycle"]


class TestAgreementSweepDifferential:
    """The blocked sweep must give the loop's stats, field for field."""

    @given(st.sampled_from(FAMILIES), st.integers(0, 3000), st.integers(min_value=0))
    def test_matches_the_loop(self, family, n, seed):
        assert run_disjointness_agreement(family, n, seed) == (
            _reference_run_disjointness_agreement(family, n, seed)
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_across_block_boundaries(self, family):
        n = 2 * foliation._AUDIT_BLOCK_CELLS + 1
        assert run_disjointness_agreement(family, n, 9) == (
            _reference_run_disjointness_agreement(family, n, 9)
        )

    @pytest.mark.parametrize("cells", [1, 7, 100])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_block_size_does_not_change_the_stats(self, family, cells, monkeypatch):
        expected = _reference_run_disjointness_agreement(family, 500, 3)
        monkeypatch.setattr(foliation, "_AUDIT_BLOCK_CELLS", cells)
        assert run_disjointness_agreement(family, 500, 3) == expected

    @pytest.mark.parametrize("family", FAMILIES)
    def test_draws_replay_the_loop_bit_for_bit(self, family):
        n = foliation._AUDIT_BLOCK_CELLS + 3000
        blocks = list(foliation._draw_blocks(family, n, 11))
        assert [b[0].size for b in blocks] == [foliation._AUDIT_BLOCK_CELLS, 3000]
        got = np.concatenate([np.column_stack(b) for b in blocks])
        want = np.array(_reference_draws(family, n, 11))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_carrier_columns_are_the_constructors(self, family):
        *head, s1, beta1, s2, beta2 = next(foliation._draw_blocks(family, 3000, 2))
        phi = head[0] if head else None
        leaf = leaf_orthogonal_to_geodesic if phi is None else leaf_orthogonal_to_hypercycle
        for s, beta in ((s1, beta1), (s2, beta2)):
            got = np.column_stack(
                _orthogonal_leaves(s, _math_map(math.cos, beta), _ray(phi))[:3]
            )
            shapes = [leaf(*row).shape for row in zip(*head, s.tolist(), beta.tolist())]
            want = np.array([
                [getattr(sh, name, math.nan) for name in ("cx", "cy", "radius")]
                for sh in shapes
            ])
            assert any(isinstance(sh, Line) for sh in shapes)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_screen_leaves_few_pairs_to_the_kernel(self, monkeypatch):
        rows = _kernel_rows(monkeypatch)
        for family in FAMILIES:
            run_disjointness_agreement(family, 2000, 0)
        # The line pairs (about 8 % of the draws) and the near cases.
        assert sum(rows) < 0.1 * 2 * 2000

    @pytest.mark.parametrize("family", FAMILIES)
    def test_math_maps_no_more_elements_than_the_kernel_takes(self, family, monkeypatch):
        # The sweep's columns come from numpy's ufuncs, and the screen
        # settles every draw, so the contact kernel, the only part that
        # maps math.hypot, takes no row, and nothing is mapped.
        rows = _kernel_rows(monkeypatch)
        mapped = []

        def counting(f, *xs):
            mapped.append(np.size(xs[0]))
            return _math_map(f, *xs)

        for module in (foliation, leaves):
            monkeypatch.setattr(module, "_math_map", counting)
        run_disjointness_agreement(family, 2000, 0)
        assert (rows, mapped) == ([], [])

    def test_peak_memory_does_not_grow_with_n(self):
        # Drawing all 200 000 pairs at once takes about 130 MB.
        tracemalloc.start()
        try:
            run_disjointness_agreement("hypercycle", 200_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_screen_verdicts_hold_at_the_boundary_tolerance(self):
        # Circles through a common point at y = BOUNDARY_TOL: numpy's
        # height for the upper crossing and carrier_contact's differ in
        # the last bits, and only the screen's rounding guard keeps its
        # verdicts carrier_contact's.
        rng = np.random.default_rng(1)
        m = 5000
        x1, x2, px = rng.uniform(-1.0, 1.0, (3, m))
        y1, y2 = rng.uniform(-1.0, 0.0, (2, m))
        r1, r2 = np.hypot(px - x1, BOUNDARY_TOL - y1), np.hypot(px - x2, BOUNDARY_TOL - y2)
        unflagged, crossing = foliation._screen(x1, y1, r1, x2, y2, r2)
        assert crossing.sum() > m // 10
        for k in range(m):
            contact = _reference_contact(
                *(Leaf(Circle(x, y, r), math.acos(y / r))
                  for x, y, r in ((x1[k], y1[k], r1[k]), (x2[k], y2[k], r2[k])))
            )
            if crossing[k]:
                assert contact.kind == "transverse"
                assert upper_contact(contact) is not None
            if unflagged[k]:
                assert contact.kind != "tangent"
                assert upper_contact(contact) is None


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


def _scaled_leaf_map(transversal, e):
    """The map ``(t, h) -> Leaf`` of a slice's rows, scaled by 2**e and
    built through the constructors: every carrier field is a multiple of
    the crossing (e^(t L), or a horocycle's height), so scaling it scales
    the leaf exactly, within the float range."""
    if transversal.kind == TransversalKind.HOROCYCLE:
        height = math.ldexp(transversal.height, e)
        return lambda t, h: (
            Leaf(Line(math.ldexp(t, e), height, 0.0, 1.0), math.pi / 2)
            if h == 0.0
            else Leaf(Circle(math.ldexp(t, e), height, height / -h), math.acos(-h))
        )
    L, phi = transversal.curvature_bound, transversal.phi
    if phi is None:
        return lambda t, h: leaf_orthogonal_to_geodesic(
            math.ldexp(math.exp(t * L), e), math.acos(-h)
        )
    return lambda t, h: leaf_orthogonal_to_hypercycle(
        phi, math.ldexp(math.exp(t * L), e), math.acos(-h)
    )


def _reference_verify_disjoint(slice_, boundary_tol=1e-9, tangency_tol=1e-9, rebuild=False):
    """The audit by its definition: every pair through ``_reference_contact``,
    after scaling both leaves by 2**-k of the lower one, O(n^2) Python.
    The scaled leaves are the unscaled ones with their fields scaled, or
    with ``rebuild`` the ones ``_scaled_leaf_map`` builds from the
    scaled crossing, which differ where the unscaled fields are subnormal."""
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
                if (index, k) not in scaled and rebuild:
                    row = slice_.t[index], slice_.h[index]
                    scaled[index, k] = _scaled_leaf_map(slice_.transversal, -k)(*row)
                elif (index, k) not in scaled:
                    scaled[index, k] = _scaled_leaf(leaf, -k)
            contact = _reference_contact(scaled[i, k], scaled[j, k])
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


def _exact_contact(first, second, band):
    """The referee: ``carrier_contact`` plus ``upper_contact`` on two
    carriers (``Circle`` or ``Line``), decided in exact rational
    arithmetic on their float fields.  Returns None when an exact value
    lies within ``band`` of a threshold it is compared with
    (``TANGENCY_TOL`` for the gap, ``BOUNDARY_TOL`` for a contact's
    height), where the float decision may go either way, and for two
    lines.  Otherwise ``(kind, point)``: the kind of the flagged contact
    and its first point above the boundary (nan for coincident
    carriers), or ``(None, None)`` when nothing is flagged.

    Two circles with centre offset (dx, dy), D = dx^2 + dy^2 and
    k = (r1^2 - r2^2 + D) / (2 D) meet on the chord through
    m = c1 + k (dx, dy), at m -+ sqrt(q) (dy, -dx) with
    q = r1^2 / D - k^2, and touch at m when they are tangent.  A line
    p + s u meets a circle c where (u.u) s^2 + 2 b s + |p - c|^2 - r^2 = 0,
    b = (p - c).u, and touches it at its foot s = -b / (u.u).  Only the
    square roots are irrational: each decision squares them away, and
    the points, which the caller compares within a tolerance, take a
    float root."""
    tol, top, band = Fraction(TANGENCY_TOL), Fraction(BOUNDARY_TOL), Fraction(band)

    def side(y):  # +1 above the boundary, -1 below it, 0 within the band
        return (y > top + band) - (y < top - band)

    def within(square, s, t):  # |sqrt(square) - s| <= t, for s, t >= 0
        return max(s - t, 0) ** 2 <= square <= (s + t) ** 2

    def tangency(near, point):
        if not near(tol - band):
            return None if near(tol + band) else False
        return None if not side(point[1]) else ("tangent", point) if side(point[1]) > 0 else (None, None)

    def crossing(base, square, points):
        # The higher point is base + sqrt(square); the first one counts.
        high = top + band - base
        if high < 0 or square > high * high:
            first = side(points[0][1])
            return None if not first else ("transverse", points[first < 0])
        low = top - band - base
        return (None, None) if low > 0 and square < low * low else None

    if isinstance(first, Line):
        first, second = second, first
    if isinstance(first, Line):
        return None
    x1, y1, r1 = map(Fraction, (first.cx, first.cy, first.radius))
    if isinstance(second, Circle):
        x2, y2, r2 = map(Fraction, (second.cx, second.cy, second.radius))
        dx, dy = x2 - x1, y2 - y1
        D = dx * dx + dy * dy
        rdiff = abs(r1 - r2)
        if D <= (tol + band) ** 2 and rdiff <= tol + band:  # perhaps coincident
            coincident = D < (tol - band) ** 2 and rdiff < tol - band
            return ("coincident", (math.nan, math.nan)) if coincident else None
        if D == 0:
            return None, None
        k = (r1 * r1 - r2 * r2 + D) / (2 * D)
        mx, my = x1 + k * dx, y1 + k * dy
        touch = tangency(lambda t: within(D, r1 + r2, t) or within(D, rdiff, t), (mx, my))
        if touch is not False:
            return touch
        q = r1 * r1 / D - k * k
        if q <= 0:
            return None, None
        root = Fraction(math.sqrt(q))
        points = [(mx - root * dy, my + root * dx), (mx + root * dy, my - root * dx)]
        return crossing(my, q * dx * dx, points)
    x0, y0, ux, uy = map(Fraction, (second.x0, second.y0, second.dx, second.dy))
    px, py = x0 - x1, y0 - y1
    uu = ux * ux + uy * uy
    b = px * ux + py * uy
    foot = (x0 - ux * b / uu, y0 - uy * b / uu)
    dist2 = (px * uy - py * ux) ** 2 / uu
    touch = tangency(lambda t: within(dist2, r1, t), foot)
    if touch is not False:
        return touch
    delta = b * b - uu * (px * px + py * py - r1 * r1)
    if delta <= 0:
        return None, None
    root = Fraction(math.sqrt(delta)) / uu
    points = [(foot[0] - ux * root, foot[1] - uy * root), (foot[0] + ux * root, foot[1] + uy * root)]
    return crossing(foot[1], uy * uy * delta / (uu * uu), points)


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
    """The audit's report is the reference's; where the reference leaves
    the float range, the audit refuses the slice."""
    try:
        expected = _reference_verify_disjoint(slice_)
    except OverflowError:
        with pytest.raises(DomainError, match="float range"):
            verify_disjoint(slice_)
        return None
    report = verify_disjoint(slice_)
    assert _report_key(report) == _report_key(expected)
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
    """Two to four leaves of one transversal, with the levels at the ends
    of the band (lines, horocycles) and crossings a few ulps apart
    (near-coincident and near-tangent pairs) drawn often."""
    phi = draw(st.one_of(st.none(), st.floats(0.1, 1.45)))
    tr = Transversal.geodesic() if phi is None else Transversal.hypercycle(phi)
    bound = tr.curvature_bound
    level = st.one_of(st.sampled_from([-bound, bound, 0.0]), st.floats(-bound, bound))
    ts = [draw(st.floats(-45, 45))]
    for _ in range(draw(st.integers(1, 3))):
        step = draw(
            st.one_of(
                st.integers(0, 4).map(lambda k: k * math.ulp(ts[-1])),
                st.floats(1e-9, 3.0),
            )
        )
        ts.append(ts[-1] + step)
    rows = []
    for t in ts:
        h = rows[-1][1] if rows and draw(st.booleans()) else draw(level)
        rows.append((t, h))
    return slice_of(rows, tr)


def _switch_slices(transversal, t1, h1, t2):
    """Leaf pairs (t1, h1) below (t2, h) over the transversal, around the
    float h where the reference audit switches verdict.

    Bisects h over the floats of the band, where the verdict goes from
    crossing (the upper leaf's ideal end inside the lower leaf's) to clean
    (a line above it); returns the slices for the 17 floats around the
    switch, or none when the verdict does not switch in the band.
    """

    def slice_at(h):
        return slice_of([(t1, h1), (t2, h)], transversal)

    def flagged(h):
        return not _reference_verify_disjoint(slice_at(h)).clean

    h_lo, h_hi = -transversal.curvature_bound, transversal.curvature_bound
    if flagged(h_lo) == flagged(h_hi):
        return []
    below = flagged(h_lo)
    while (mid := 0.5 * (h_lo + h_hi)) not in (h_lo, h_hi):
        if flagged(mid) == below:
            h_lo = mid
        else:
            h_hi = mid
    hs = [h_lo]
    for direction in (-math.inf, math.inf):
        h = h_lo
        for _ in range(8):
            h = math.nextafter(h, direction)
            hs.append(h)
    return [slice_at(h) for h in hs if abs(h) <= transversal.curvature_bound]


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
            lambda: synthesize(
                Route(Transversal.horocycle(1.0), np.linspace(-2, 2, 41), np.full(41, -0.3)),
                force=True,
            ),
            lambda: synthesize(
                builtin_route("pencil", window=(-30, 30), n=121), force=True
            ),
            # Steeper than the pencil: every pair crosses, so no link clears.
            lambda: synthesize(
                Route(
                    Transversal.geodesic(), np.linspace(-1, 1, 41), -np.tanh(np.linspace(-2, 2, 41))
                ),
                force=True,
            ),
            lambda: slice_of([]),
            lambda: slice_of([axis_row(0.0, 1.0)]),
        ],
        ids=[
            "pencil-3-3", "pencil-12-12", "horospherical", "constant-max-geodesic",
            "constant-max-hypercycle", "totally-geodesic", "zero-horocycle",
            "circle-horocycle", "pencil-30-30", "all-links-open", "empty", "single-leaf",
        ],
    )
    def test_fixed_families_match_reference(self, make):
        assert_matches_reference(make())

    def test_duplicated_leaves_are_coincident(self):
        leaf = (math.log(1.5), -math.cos(1.1))
        line = (math.log(2.0), 1.0)
        report = assert_matches_reference(slice_of([leaf, leaf, line, line, (0.7, leaf[1])]))
        kinds = [(c.t1, c.t2, c.kind) for c in report.intersecting]
        assert (leaf[0], leaf[0], "coincident") in kinds
        assert (line[0], line[0], "coincident") in kinds

    def test_lines_crossing_circles_are_flagged(self):
        # Horizontal lines low on the axis under bigger circles: every
        # such pair crosses.
        slice_ = slice_of([(0.0, 1.0), (0.3, 1.0), (1.0, -math.cos(0.8)), (1.4, -math.cos(0.8))])
        report = assert_matches_reference(slice_)
        assert len(report.intersecting) == 4

    def test_crossings_at_the_boundary_tolerance(self):
        # Two leaves crossing just above or below y = boundary_tol: the
        # screen's rounding guard is all that keeps these pairs exact.  It
        # matters on hypercycles, whose carriers' centres are not coaxial;
        # coaxial geodesic pairs round alike in numpy and in carrier_contact.
        rng = np.random.default_rng(0)
        switches = 0
        for _ in range(300):
            phi = None if rng.random() < 0.25 else float(rng.uniform(0.1, 1.45))
            tr = Transversal.geodesic() if phi is None else Transversal.hypercycle(phi)
            bound = tr.curvature_bound
            # The lower leaf at scale about 2**m, the upper one up to e^1.5 above.
            t1 = int(rng.integers(-60, 61)) * math.log(2.0) / bound + rng.uniform(-0.3, 0.3)
            h1 = float(rng.uniform(-0.9, 0.9)) * bound
            slices = _switch_slices(tr, t1, h1, t1 + float(rng.uniform(0.01, 1.5)))
            switches += bool(slices)
            for slice_ in slices:
                assert_matches_reference(slice_)
        assert switches >= 40

    @pytest.mark.parametrize("gap", [0.5e-9, 1e-9 * (1 - 1e-12), 1e-9, 1e-9 * (1 + 1e-12), 2e-9])
    @pytest.mark.parametrize("beta2", [0.3, math.pi / 2, 2.5])
    def test_tangencies_at_the_tolerance(self, gap, beta2):
        # Leaves orthogonal to the axis at nearly the same height touch
        # there, up to a gap of about the height difference.
        for step in range(-4, 5):
            s2 = 1.0 + gap + step * math.ulp(1.0)
            assert_matches_reference(
                slice_of([(0.0, -math.cos(1.0)), (math.log(s2), -math.cos(beta2))])
            )

    @pytest.mark.parametrize(
        "phi, t1, h1, t2, h2",
        [
            (0.83, -0.01, -0.6, -0.009999998634823995, 0.595),
            (1.02, -0.03, -0.317, -0.02999999879605264, 0.281),
        ],
    )
    def test_off_axis_tangencies_at_the_tolerance(self, phi, t1, h1, t2, h2):
        # Hypercycle leaves nested and nearly touching where they cross
        # the ray, stepped by ulps across the float t2 where
        # carrier_contact's gap passes TANGENCY_TOL.  Their centres are
        # off the axis, so numpy's hypot may round the centre distance
        # one ulp apart from math's: on glibc, at the first seven floats
        # numpy's gap lies above the tolerance and math's at or below it,
        # and only the screen's rounding guard keeps these apart pairs
        # from being settled as clear.
        tr = Transversal.hypercycle(phi)
        kinds = set()
        for step in range(-8, 5):
            t = t2
            for _ in range(abs(step)):
                t = math.nextafter(t, math.copysign(math.inf, step))
            report = assert_matches_reference(slice_of([(t1, h1), (t, h2)], tr))
            kinds.add(len(report.tangent))
        assert kinds == {0, 1}

    @pytest.mark.parametrize("cells", [1, 7, 100])
    def test_block_size_does_not_change_the_report(self, cells, monkeypatch):
        route, _ = perturbed_invalid_route(Transversal.hypercycle(0.9), n=41, seed=4)
        slice_ = extend_slice(synthesize(route, force=True), 3)
        expected = _report_key(verify_disjoint(slice_))
        monkeypatch.setattr(foliation, "_AUDIT_BLOCK_CELLS", cells)
        assert _report_key(verify_disjoint(slice_)) == expected

    def test_valid_routes_recompute_few_pairs(self, monkeypatch):
        rows = _kernel_rows(monkeypatch)
        for tr in (Transversal.geodesic(), Transversal.hypercycle(0.9)):
            route = random_valid_route(tr, window=(-42.0, -38.0), n=241, seed=1)
            report = verify_disjoint(synthesize(route))
            assert report.clean
        # Two routes of 241 leaves: at most 1 % of their pairs.
        assert sum(rows) < 0.01 * 2 * (241 * 240 // 2)


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

    def test_verdicts_are_reversal_invariant(self):
        # (t, h) -> (-t, -h) is an isometry of the problem: on the geodesic
        # and on each ray it swaps the ends of the transversal and the sides
        # of its leaves, so it mirrors every flagged pair (t1, t2).
        from umbilic import validate_c0

        flagged = 0
        for phi in (None, 0.5, 0.9, 1.3):
            tr = Transversal.geodesic() if phi is None else Transversal.hypercycle(phi)
            for seed in range(40):
                for route in (
                    random_valid_route(tr, n=61, seed=seed),
                    perturbed_invalid_route(tr, n=61, seed=seed)[0],
                ):
                    mirrored = Route(tr, -route.t[::-1], -route.h[::-1])
                    verdicts = validate_c0(route), validate_c0(mirrored)
                    assert verdicts[0].valid == verdicts[1].valid
                    # The slacks differ in their last bits.
                    assert verdicts[1].worst_slack == pytest.approx(
                        verdicts[0].worst_slack, abs=1e-12
                    )
                    report, mirror = (
                        verify_disjoint(synthesize(r, force=True)) for r in (route, mirrored)
                    )
                    assert report.clean == mirror.clean
                    pairs = {(c.t1, c.t2, c.kind) for c in (*report.intersecting, *report.tangent)}
                    assert {(-t2, -t1, kind) for t1, t2, kind in pairs} == {
                        (c.t1, c.t2, c.kind) for c in (*mirror.intersecting, *mirror.tangent)
                    }
                    flagged += len(pairs)
        assert flagged > 3000

    def test_witness_past_the_float_range_is_refused(self):
        # Horocycle circles near the top of the float range, crossing at a
        # point whose x overflows once scaled back from the audit's scale.
        t2 = (1 - 1e-12) * np.finfo(float).max
        rows = [(t2 - 2.5e302, -1e200 / 3e302), (t2, -1e200 / 1e302)]
        assert assert_matches_reference(slice_of(rows, Transversal.horocycle(1e200))) is None

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


@st.composite
def chained_slices(draw):
    """Families whose links mostly clear, with a few open ones: valid,
    perturbed and extended routes at offsets -40, 0 and +40, valid routes
    with one leaf given another admissible level (one defect in a clean
    chain), and horocycle slices, whose links never clear.  Windows are
    4 wide, or 12 to 40 wide with margins down to 1e-9 (near the pencil),
    so that far pairs span scale ratios up to about e^40."""
    kind = draw(st.sampled_from(["geodesic", "hypercycle", "horocycle"]))
    n = draw(st.integers(2, 120))
    seed = draw(st.integers(0, 2**16))
    offset = draw(st.sampled_from([-40.0, 0.0, 40.0]))
    half = draw(st.one_of(st.just(2.0), st.floats(6.0, 20.0)))
    if kind == "horocycle":
        t = offset + np.linspace(-2.0, 2.0, n)
        levels = np.random.default_rng(seed).choice([0.0, -0.5, -1.0], n)
        return synthesize(Route(Transversal.horocycle(1.0), t, levels), force=True)
    tr = (
        Transversal.geodesic()
        if kind == "geodesic"
        else Transversal.hypercycle(draw(st.floats(0.1, 1.45)))
    )
    window = (offset - half, offset + half)
    margin = draw(st.sampled_from([1e-3, 1e-6, 1e-9]))
    variant = draw(st.sampled_from(["valid", "perturbed", "swapped"]))
    if variant == "perturbed":
        route, _ = perturbed_invalid_route(tr, window=window, n=n, margin=margin, seed=seed)
    else:
        route = random_valid_route(tr, window=window, n=n, margin=margin, seed=seed)
    if variant == "swapped":
        h = route.h.copy()
        bound = tr.curvature_bound
        h[draw(st.integers(0, n - 1))] = draw(st.floats(-bound, bound))
        route = Route(tr, route.t, h)
    slice_ = synthesize(route, force=True)
    if kind == "hypercycle" and draw(st.booleans()):
        slice_ = extend_slice(slice_, draw(st.integers(1, 6)))
    return slice_


class TestLinkScreen:
    """The audit screens only the pairs whose span holds a link (pair of
    consecutive leaves) it could not clear; the report stays the
    pair-by-pair loop's."""

    @settings(max_examples=60)
    @given(chained_slices())
    def test_matches_reference(self, slice_):
        assert_matches_reference(slice_)

    @staticmethod
    def screened_pairs(monkeypatch, slice_):
        counts = []
        screen = foliation._screen

        def counting(*columns, **kwargs):
            counts.append(columns[0].size)
            return screen(*columns, **kwargs)

        monkeypatch.setattr(foliation, "_screen", counting)
        return verify_disjoint(slice_), sum(counts)

    def test_clean_family_screens_only_its_links(self, monkeypatch):
        n = 4000
        route = random_valid_route(Transversal.hypercycle(0.9), n=n, seed=1)
        report, screened = self.screened_pairs(monkeypatch, synthesize(route))
        assert report.clean
        assert report.pair_count == n * (n - 1) // 2
        assert screened == n - 1

    @pytest.mark.parametrize(
        "route",
        [
            builtin_route("totally_geodesic", window=(-12.0, 12.0), n=241),
            builtin_route("constant", c=0.0, window=(-12.0, 12.0), n=241),
        ],
        ids=["totally-geodesic", "constant-0"],
    )
    def test_concentric_family_clears_its_links(self, monkeypatch, route):
        # Every leaf is a circle about the origin; distinct ones never meet.
        rows = _kernel_rows(monkeypatch)
        slice_ = synthesize(route)
        assert {leaf.shape.cx for _, leaf, _ in slice_.all_entries()} == {0.0}
        report, screened = self.screened_pairs(monkeypatch, slice_)
        assert report.clean
        assert screened == 240
        assert rows == []

    def test_horocycle_slice_screens_every_pair(self, monkeypatch):
        n = 200
        route = Route(Transversal.horocycle(1.0), np.linspace(-2, 2, n), np.zeros(n))
        report, screened = self.screened_pairs(monkeypatch, synthesize(route))
        assert report.clean
        assert screened == n * (n - 1) // 2

    def test_far_pairs_beyond_the_float_range_are_certified(self, monkeypatch):
        # The top leaf's squared radius overflows at the bottom leaf's
        # scale, as for the two-sample route in test_cli, but every link
        # clears, so no far pair is intersected.
        n = 400
        route = Route(Transversal.geodesic(), np.linspace(-360.0, 360.0, n), np.full(n, 0.5))
        report, screened = self.screened_pairs(monkeypatch, synthesize(route))
        assert report.clean
        assert report.pair_count == n * (n - 1) // 2
        assert screened == n - 1

    @staticmethod
    def leaves_meeting_above_the_axis(a0, heights, rise):
        """Axis-orthogonal leaves at the given heights, the first ending at
        +-a0, each crossing the one before at ``rise`` times the lower
        leaf's scale above the axis, so within ``BOUNDARY_TOL`` of it.
        Coaxial circles cross at y = (a1^2 - a2^2) / (2 (c2 - c1)), where
        c is the centre's height, which fixes each next endpoint."""
        def row(s, a):
            # Ends at +-a = +-s tan(beta / 2), so h = -cos(beta) = (a^2 - s^2) / (a^2 + s^2).
            return math.log(s), (a * a - s * s) / (a * a + s * s)

        s = heights[0]
        a, c = a0, (s * s - a0 * a0) / (2 * s)
        rows = [row(s, a)]
        for lower, s in zip(heights, heights[1:]):
            y = rise * 2.0 ** round(math.log2(lower))
            u = (a * a - y * s + 2 * y * c) / (1 - y / s)
            a, c = math.sqrt(u), (s * s - u) / (2 * s)
            rows.append(row(s, a))
        return slice_of(rows)

    @pytest.mark.parametrize("a0", [1.0, 5.0])
    @pytest.mark.parametrize(
        "heights", [[1.0, 4.0, 16.0], [1.0, 16.0, 256.0], [1.0, 2.0, 4.0, 8.0, 16.0]]
    )
    def test_links_crossing_within_the_boundary_tolerance_stay_open(self, a0, heights):
        # Each link crosses below BOUNDARY_TOL at its scale, so none is
        # flagged; pairs spanning a change of scale cross above it.
        report = assert_matches_reference(self.leaves_meeting_above_the_axis(a0, heights, 0.7e-9))
        assert not report.clean

    def test_links_are_judged_at_their_lower_leafs_scale(self, monkeypatch):
        # The first two leaves nest, touching nearly at their crossings,
        # which straddle a power of two: 1.5e-9 apart at the lower leaf's
        # scale (not tangent), 0.75e-9 at the upper one's.
        s0 = math.sqrt(2.0) * (1.0 - 1e-9)
        leaves = [(s0, math.pi / 3), (s0 + 1.5e-9, math.pi / 2), (1.5 * s0, 2.0)]
        slice_ = slice_of([(math.log(s), -math.cos(beta)) for s, beta in leaves])
        report, screened = self.screened_pairs(monkeypatch, slice_)
        assert report.clean
        assert screened == 2


@st.composite
def burst_slices(draw):
    """Families with two to four bursts of over-steep profile growth,
    each opening links, so the audit's runs are several: the draw of
    ``perturbed_invalid_route`` with more bursts, on the geodesic and
    hypercycles, at offsets -40, 0 and +40, hypercycles optionally
    extended."""
    phi = draw(st.one_of(st.none(), st.floats(0.1, 1.45)))
    tr = Transversal.geodesic() if phi is None else Transversal.hypercycle(phi)
    n = draw(st.integers(20, 241))
    offset = draw(st.sampled_from([-40.0, 0.0, 40.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    bound = tr.curvature_bound
    t = np.linspace(offset - 2.0, offset + 2.0, n)
    slopes = rng.uniform(-0.8 * bound, bound - 1e-3, n - 1)
    for _ in range(draw(st.integers(2, 4))):
        start = int(rng.integers(0, n - 1))
        slopes[start : start + int(rng.integers(2, 6))] = bound + 0.5
    profile = np.concatenate(([0.0], np.cumsum(slopes * np.diff(t)))) + rng.uniform(-1, 1)
    h = [profile_inverse(_effective_phi(tr), y) for y in profile]
    slice_ = synthesize(Route(tr, t, h), force=True)
    if phi is not None and draw(st.booleans()):
        slice_ = extend_slice(slice_, draw(st.integers(1, 4)))
    return slice_


class TestCleanAudit:
    """A family whose links all clear costs its carriers and one link
    screen: no probe block, no kernel call, and the shared empty
    contacts."""

    @pytest.mark.parametrize("tr", TRANSVERSALS)
    @pytest.mark.parametrize("seed", range(3))
    def test_pays_only_for_its_links(self, tr, seed, monkeypatch):
        route = random_valid_route(tr, seed=seed)
        assert validate_c0(route).valid
        slice_ = synthesize(route)
        called = collections.Counter()
        for name in ("_blocks", "_carrier_contacts", "_screen"):
            function = getattr(foliation, name)
            monkeypatch.setattr(
                foliation, name,
                lambda *a, _f=function, _name=name, **kw: called.update([_name]) or _f(*a, **kw),
            )
        report = verify_disjoint(slice_)
        assert report.clean and report.pair_count == route.n * (route.n - 1) // 2
        assert called == {"_screen": 1}  # the link screen
        assert report.intersecting is report.tangent is foliation._NO_CONTACTS
        assert not report.tangent.t1.flags.writeable

    def test_the_empty_report_reads_as_before(self):
        report = verify_disjoint(synthesize(builtin_route("totally_geodesic", n=50)))
        assert report == DisjointnessReport(True, 1225, (), ())
        assert repr(report.intersecting) == "()" and len(report.tangent) == 0


class TestRunProbes:
    """Probes at the boundaries of the runs of cleared links certify the
    pairs between two runs; the report stays the pair-by-pair loop's."""

    @settings(max_examples=30)
    @given(burst_slices())
    def test_bursts_match_reference(self, slice_):
        assert_matches_reference(slice_)

    def test_perturbed_route_screens_few_pairs(self, monkeypatch):
        n = 4000
        route, _ = perturbed_invalid_route(
            Transversal.hypercycle(0.9), window=(-4, 4), n=n, seed=1
        )
        slice_ = synthesize(route, force=True)
        report, screened = TestLinkScreen.screened_pairs(monkeypatch, slice_)
        assert not report.clean
        assert screened < 50_000  # of 8 M pairs, 4 M of them spanning an open link
        # With no link cleared, every pair goes through the pair screen,
        # which TestVerifyDisjointDifferential holds to the reference.
        monkeypatch.setattr(foliation, "_cleared_links", lambda *_: np.zeros(n - 1, dtype=bool))
        assert _report_key(verify_disjoint(slice_)) == _report_key(report)

    @staticmethod
    def probe_boundary_slice():
        """Three runs of geodesic leaves, each leaf orthogonal to the axis
        and given by its height s and its endpoints +-a:

        - a horizontal line W at height 0.5, crossing every later leaf;
        - five leaves nested well inside the unit half-circle P at height
          1, then P, then Q at height 4, crossing P 1e-10 below the axis
          (a cleared link);
        - S at height 16, crossing Q 0.7e-9 of Q's scale above the axis
          (an open link), then five leaves far outside S.

        P and S cross 2.1e-9 above the axis, at P's scale 1: a contact
        that only the probe (P, S), the first leaf of the next run, keeps
        open; a probe of P to the last leaf of S's run would certify
        (P, S).  Q's probe (Q, S) crosses within ``BOUNDARY_TOL`` at Q's
        scale, so probes judged at that tolerance would skip Q's pairs,
        which meet nothing: only the screened count shows it.  W's pairs are read at scale 2**-1, P's at 2**0, so a leaf
        cache keyed by row alone would hand (P, S) leaves of the wrong
        size.
        """

        def row(s, a):  # h = -cos(beta) with a = s tan(beta / 2)
            return math.log(s), (a * a - s * s) / (a * a + s * s)

        def crossing_at(a, c, s, y):
            # The endpoint a' and centre height c' of the leaf at height s
            # crossing the leaf (a, c) at height y: coaxial circles cross
            # where x^2 + y^2 - 2 y c = a^2 on both.
            u = (a * a - y * s + 2 * y * c) / (1 - y / s)
            return math.sqrt(u), (s * s - u) / (2 * s)

        rows = [(math.log(0.5), 1.0)]
        rows += [row(s, 0.5 * s) for s in (0.6, 0.7, 0.8, 0.9, 0.95)]
        rows.append(row(1.0, 1.0))
        a, c = crossing_at(1.0, 0.0, 4.0, -1e-10)
        rows.append(row(4.0, a))
        a, c = crossing_at(a, c, 16.0, 0.7e-9 * 4)
        rows.append(row(16.0, a))
        rows += [row(s, s / 10) for s in (32.0, 64.0, 128.0, 256.0, 512.0)]
        return slice_of(rows)

    def test_probes_hold_at_the_run_boundaries(self, monkeypatch):
        slice_ = self.probe_boundary_slice()
        report = assert_matches_reference(slice_)
        assert report.tangent == ()
        contacts = [(c.t1, c.t2) for c in report.intersecting]
        assert contacts == [(math.log(0.5), t) for t in slice_.t[1:].tolist()] + [
            (0.0, math.log(16.0))
        ]
        assert 2e-9 < report.intersecting[-1].y < 2.2e-9
        # 13 links; 9 probes: 2 from W and 7 into S's run; 25 pairs: W's
        # 13, and the 6 of S's run from each of P and Q, whose probes
        # cross above the axis.
        _, screened = TestLinkScreen.screened_pairs(monkeypatch, slice_)
        assert screened == 13 + 9 + 25

    @staticmethod
    def wide_slice(n):
        """Geodesic leaves 357 apart in t at level 0.5, two of them near
        the top at -0.9: the lowest rows' later leaves reach past 2**511
        at their scale, so only the certificate keeps their far pairs out
        of the float range."""
        h = np.full(n, 0.5)
        h[[n - 10, n - 4]] = -0.9
        route = Route(Transversal.geodesic(), np.linspace(-5.0, 352.0, n), h)
        return synthesize(route, force=True)

    def test_rows_beyond_reach_are_certified(self, monkeypatch):
        # Each -0.9 leaf crosses the leaf below it; every other pair is
        # certified or screened at a scale that holds it.
        slice_ = self.wide_slice(300)
        report, screened = TestLinkScreen.screened_pairs(monkeypatch, slice_)
        assert [(round(c.t1, 2), round(c.t2, 2)) for c in report.intersecting] == [
            (340.06, 341.25),
            (347.22, 348.42),
        ]
        assert report.tangent == ()
        # 299 links; 586 probes, two from each row of the first run and one
        # from each of the six of the second; 10 pairs, those of rows 289
        # and 295 with the run above, whose probes are their open links.
        assert screened == 299 + 586 + 10

    @pytest.mark.parametrize("phi", [None, 0.5, 0.9])
    def test_rows_reaching_near_the_float_range_match_reference(self, phi):
        # t L spans 350, so the lowest rows' later leaves reach past 2**500
        # at their scale, but their squares stay in range: the reference
        # intersects every pair, which the certificate may clear.
        tr = Transversal.geodesic() if phi is None else Transversal.hypercycle(phi)
        window = (-175.0 / tr.curvature_bound, 175.0 / tr.curvature_bound)
        route, _ = perturbed_invalid_route(tr, window=window, n=60, seed=1)
        slice_ = synthesize(route, force=True)
        report = verify_disjoint(slice_)
        assert not report.clean
        assert _report_key(report) == _report_key(_reference_verify_disjoint(slice_))


# --------------------------------------------------------------------------
# Line carriers in the numpy screen


def _leaf_columns(shape):
    """The seven carrier columns of ``_slice_carriers`` for one leaf
    shape, as one-row arrays."""
    if isinstance(shape, Circle):
        values = (shape.cx, shape.cy, shape.radius) + (math.nan,) * 4
    else:
        values = (math.nan,) * 3 + (shape.x0, shape.y0, shape.dx, shape.dy)
    return [np.array([v]) for v in values]


def _leaf_of(shape):
    """A leaf on the shape, with the angle its carrier fixes."""
    if isinstance(shape, Circle):
        return Leaf(shape, math.acos(shape.cy / shape.radius))
    return Leaf(shape, math.atan2(shape.dy, shape.dx))


@st.composite
def _leaf_circles(draw):
    """A circle reaching the boundary, centred at height in [-2, 2]."""
    cy = draw(st.floats(-2.0, 2.0))
    return Circle(draw(st.floats(-2.0, 2.0)), cy, abs(cy) + draw(st.floats(1e-3, 3.0)))


@st.composite
def circle_line_pairs(draw):
    """A circle and a line within a few ``TANGENCY_TOL`` of touching it, or
    crossing it at a point within a few ulps of ``BOUNDARY_TOL``."""
    c = draw(_leaf_circles())
    if draw(st.booleans()):
        psi = draw(st.floats(0.0, 2.0 * math.pi))
        nx, ny = math.cos(psi), math.sin(psi)
        gap = draw(
            st.one_of(
                st.integers(-8, 8).map(lambda k: k * TANGENCY_TOL / 2),
                st.floats(-4 * TANGENCY_TOL, 4 * TANGENCY_TOL),
            )
        )
        d = c.radius + gap
        return c, Line(c.cx + d * nx, c.cy + d * ny, -ny, nx)
    y = BOUNDARY_TOL + draw(st.integers(-4, 4)) * math.ulp(BOUNDARY_TOL)
    side = draw(st.sampled_from([-1.0, 1.0]))
    x = c.cx + side * math.sqrt(c.radius**2 - (y - c.cy) ** 2)
    theta = draw(st.one_of(st.floats(0.0, math.pi), st.floats(-1e-6, 1e-6)))
    return c, Line(x, y, math.cos(theta), math.sin(theta))


@st.composite
def line_pairs(draw):
    """Two lines: parallel (one direction, normalised alike) at offsets
    around ``TANGENCY_TOL`` or far apart, or not parallel."""
    x0, y0 = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.0, 3.0))
    theta = draw(st.floats(0.0, math.pi))
    ux, uy = math.cos(theta), math.sin(theta)
    first = Line(x0, y0, ux, uy)
    along = draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        off = draw(
            st.one_of(
                st.sampled_from([0.5, 1.0, 2.0]).map(lambda m: m * TANGENCY_TOL),
                st.integers(-4, 4).map(lambda k: TANGENCY_TOL + k * math.ulp(TANGENCY_TOL)),
                st.floats(0.0, 3.0),
            )
        )
        nx, ny = -first.dy, first.dx
        x, y = x0 + along * first.dx + off * nx, y0 + along * first.dy + off * ny
        return first, Line(x, y, ux, uy)
    other = draw(st.floats(0.0, math.pi))
    return first, Line(x0 + along, y0, math.cos(other), math.sin(other))


def _switch(flagged, lo, hi):
    """The 17 floats around the float in [lo, hi] where ``flagged``
    switches, by bisection, or none when it does not switch there."""
    if flagged(lo) == flagged(hi):
        return []
    below = flagged(lo)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if flagged(mid) == below:
            lo = mid
        else:
            hi = mid
    around = [lo]
    for direction in (-math.inf, math.inf):
        x = lo
        for _ in range(8):
            x = math.nextafter(x, direction)
            around.append(x)
    return around


class TestLineScreen:
    """Given the seven carrier columns, the screen settles pairs with a
    line carrier too: line pairs by the kernel's own steps, circle-line
    pairs behind a rounding guard.  Wherever either screen settles such a
    pair its verdict is the scalar reference's, across the kernel's line
    thresholds; links and probes with a line stay open."""

    @settings(max_examples=400)
    @given(circle_line_pairs(), st.booleans())
    def test_circle_line_verdicts_are_carrier_contacts(self, pair, line_first):
        assert_kernel_holds(*(pair[::-1] if line_first else pair))

    @settings(max_examples=300)
    @given(line_pairs())
    def test_line_line_verdicts_are_carrier_contacts(self, pair):
        assert_kernel_holds(*pair)

    def test_pairs_away_from_the_thresholds_settle(self):
        # Far from every threshold both screens settle each pair with a
        # line, as the reference does; a tangency settles only in the
        # audit's screen, and only at a point no higher than the boundary.
        circle = Circle(0.0, -0.5, 1.0)  # crosses the axis at +-sqrt(3) / 2, apex 0.5
        level = Line(0.0, 1.0, 1.0, 0.0)
        cases = [
            (circle, Line(0.0, 2.0, 1.0, 0.0), "none", False, [True, True]),
            (Line(0.0, 0.25, 1.0, 0.0), circle, "transverse", True, [True, True]),
            (circle, Line(0.0, -0.25, 1.0, 0.0), "transverse", False, [True, True]),
            (level, Line(0.0, 2.0, 1.0, 0.0), "none", False, [True, True]),
            (level, Line(0.0, 1.0, 1.0, 1.0), "transverse", True, [True, True]),
            (level, Line(1.0, 1.0, 1.0, 0.0), "coincident", True, [False, False]),
            (circle, Line(0.0, 0.5 + 1e-10, 1.0, 0.0), "tangent", True, [False, False]),
            (Line(0.0, -1.5 - 1e-10, 1.0, 0.0), circle, "tangent", False, [False, True]),
        ]
        for first, second, kind, flagged, settled in cases:
            assert assert_kernel_holds(first, second) == settled
            want = _reference_contact(_leaf_of(first), _leaf_of(second))
            assert (want.kind, upper_contact(want) is not None) == (kind, flagged)

    def test_rows_of_every_shape_in_one_call(self):
        # Circles and lines mixed in one call, so each shape's rows are a
        # part of the columns: both screens settle most pairs, each as the
        # reference does.
        rng = np.random.default_rng(5)
        pairs = [(_random_shape(rng), _random_shape(rng)) for _ in range(3000)]
        columns = zip(*(_leaf_columns(a) + _leaf_columns(b) for a, b in pairs))
        columns = list(map(np.concatenate, columns))
        wants = [_reference_contact(_leaf_of(a), _leaf_of(b)) for a, b in pairs]
        for tangent in (False, True):
            unflagged, crossing = foliation._screen(*columns, tangent=tangent)
            for want, settled in zip(wants, zip(unflagged, crossing)):
                _assert_settled_as(want, *settled, tangent)
            assert np.count_nonzero(unflagged | crossing) > 0.95 * len(pairs)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_field_past_the_float_range_settles_nothing(self, value):
        # Pairs both screens settle, of each shape: with any one of their
        # fields infinite or nan, neither screen settles them, so the
        # kernel still sees the float range.
        circle = Circle(0.0, -0.5, 1.0)
        pairs = [
            (circle, Circle(5.0, -0.5, 1.0)),
            (circle, Circle(1.0, -0.5, 1.0)),
            (circle, Line(0.0, 2.0, 1.0, 0.0)),
            (Line(0.0, 0.25, 1.0, 0.0), circle),
            (circle, Line(0.0, -0.25, 1.0, 0.0)),
            (Line(0.0, 1.0, 1.0, 0.0), Line(0.0, 2.0, 1.0, 0.0)),
            (Line(0.0, 1.0, 1.0, 0.0), Line(0.0, 1.0, 1.0, 1.0)),
        ]
        for first, second in pairs:
            assert assert_kernel_holds(first, second) == [True, True]
            columns = _leaf_columns(first) + _leaf_columns(second)
            for k, column in enumerate(columns):
                if math.isnan(column[0]):  # the other shape's fields
                    continue
                bad = [c.copy() for c in columns]
                bad[k][0] = value
                for tangent in (False, True):
                    unflagged, crossing = foliation._screen(*bad, tangent=tangent)
                    assert not (unflagged[0] or crossing[0]), (first, second, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_circle_line_switches(self, seed):
        # Lines stepped by ulps across the float where carrier_contact's
        # verdict switches: touching within TANGENCY_TOL on either side,
        # and the higher crossing passing BOUNDARY_TOL.
        rng = np.random.default_rng(seed)
        switches = 0
        for _ in range(50):
            cy = rng.uniform(-1.5, 0.0)
            c = Circle(rng.uniform(-1, 1), cy, -cy + rng.uniform(0.01, 2.0))
            psi = rng.uniform(0.0, 2.0 * math.pi)
            nx, ny = math.cos(psi), math.sin(psi)

            def line_at(d):
                return Line(c.cx + d * nx, c.cy + d * ny, -ny, nx)

            def tangent(d):
                return _reference_contact(_leaf_of(c), _leaf_of(line_at(d))).kind == "tangent"

            theta = rng.uniform(0.01, 0.5) * rng.choice([-1.0, 1.0])

            def tilted(y):
                return Line(c.cx, y, math.cos(theta), math.sin(theta))

            def above(y):
                contact = _reference_contact(_leaf_of(c), _leaf_of(tilted(y)))
                return upper_contact(contact) is not None

            r, tol = c.radius, TANGENCY_TOL
            cases = [line_at(d) for d in _switch(tangent, r - 3 * tol, r)]
            cases += [line_at(d) for d in _switch(tangent, r, r + 3 * tol)]
            cases += [tilted(y) for y in _switch(above, -0.05, 0.05)]
            switches += bool(cases)
            for line in cases:
                assert_kernel_holds(c, line)
                assert_kernel_holds(line, c)
        assert switches >= 45

    @pytest.mark.parametrize(
        "cx, cy, r, psi, d",
        [
            (-0.3820636018488177, -0.7177123168013737, 1.514869594695707, 5.9120638629402205,
             1.5148695956957068),
            (0.614845562082589, -1.4518779770727694, 3.0275995513423712, 5.751051464903692,
             3.027599550342371),
        ],
    )
    def test_tangencies_where_the_hypots_round_apart(self, cx, cy, r, psi, d):
        # Lines at distance d from the centre, at a float where
        # carrier_contact's gap passes TANGENCY_TOL: on glibc numpy's hypot
        # rounds the distance one ulp off math's there, so numpy's gap
        # lies above the tolerance and math's at it; the kernel maps
        # math.hypot, so it finds these pairs tangent, as the reference does.
        circle = Circle(cx, cy, r)
        nx, ny = math.cos(psi), math.sin(psi)
        line = Line(cx + d * nx, cy + d * ny, -ny, nx)
        assert_kernel_holds(circle, line)
        assert_kernel_holds(line, circle)

    @pytest.mark.parametrize(
        "cx, cy, r, x, y, dx, dy",
        [
            (1.963700719932831, -0.275237718867571, 2.6917136471194865, -0.7139039102639777,
             9.999999999999994e-10, -0.33629106027142786, 0.9417581020524957),
            (0.33231458383576573, -1.1017728983240165, 2.86441069203107, 2.9763541241863,
             9.999999999999996e-10, -0.3525761517062765, 0.9357831251139298),
            (-0.059566378835209655, -0.7996150843508627, 3.263137690310133, -3.2232166915597182,
             1.0000000000000003e-09, 0.2449890007251851, 0.9695258580995533),
            (0.34817115753513184, -0.3323735902932574, 2.8014786558572142, -2.4335208554372545,
             1.0000000000000003e-09, 0.11858780687129744, 0.9929435694244946),
        ],
    )
    def test_crossings_where_the_heights_round_apart(self, cx, cy, r, x, y, dx, dy):
        # Lines through a point of the circle within an ulp of height
        # BOUNDARY_TOL: numpy's hypot and r*r put the higher crossing
        # below the boundary and carrier_contact above it (first and
        # third rows), or the other way round.  The last two lines pass
        # within a few TANGENCY_TOL of the centre's distance r, where the
        # rounding of r^2 - dist^2 moves the crossing most.  Only the
        # screen's rounding guard keeps its verdicts the reference's.
        circle = Circle(cx, cy, r)
        line = Line(x, y, dx, dy)
        assert_kernel_holds(circle, line)
        assert_kernel_holds(line, circle)

    def test_parallel_line_switches(self):
        # Parallel lines stepped by ulps across the offset where
        # carrier_contact goes from coincident to apart.
        rng = np.random.default_rng(0)
        for _ in range(100):
            theta = rng.uniform(0.0, math.pi)
            ux, uy = math.cos(theta), math.sin(theta)
            first = Line(rng.uniform(-3, 3), rng.uniform(0, 3), ux, uy)

            def second(off):
                return Line(first.x0 - off * first.dy, first.y0 + off * first.dx, ux, uy)

            def coincident(off):
                contact = _reference_contact(_leaf_of(first), _leaf_of(second(off)))
                return contact.kind == "coincident"

            around = _switch(coincident, 0.0, 3 * TANGENCY_TOL)
            assert around
            for off in around:
                assert_kernel_holds(first, second(off))

    def test_sweep_settles_the_line_pairs(self, monkeypatch):
        # The screen settles every draw, the 3 230 with a line (an angle
        # at its range's upper end, beta = pi or pi/2 + phi) included, so
        # the sweep makes no kernel call.
        rows = _kernel_rows(monkeypatch)
        lines = 0
        for family in FAMILIES:
            for seed in range(10):
                run_disjointness_agreement(family, 2000, seed)
                for *head, _, beta1, _, beta2 in foliation._draw_blocks(family, 2000, seed):
                    upper = math.pi / 2 + head[0] if head else math.pi
                    lines += int(np.count_nonzero((beta1 == upper) | (beta2 == upper)))
        assert (rows, lines) == ([], 3230)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: synthesize(builtin_route("custom_constant_max", n=121)),
            lambda: synthesize(
                builtin_route(
                    "custom_constant_max", transversal=Transversal.hypercycle(0.8), n=121
                )
            ),
            lambda: synthesize(
                Route(Transversal.horocycle(1.0), np.linspace(-2, 2, 121), np.zeros(121))
            ),
            lambda: _forced_slice(Transversal.geodesic(), 3, n=80),
            lambda: extend_slice(_forced_slice(Transversal.hypercycle(0.8), 2, seed=1, n=60), 4),
        ],
        ids=["constant-max-geodesic", "constant-max-0.8", "zero-horocycle", "mixed-geodesic",
             "mixed-0.8-extended"],
    )
    def test_line_families_match_reference(self, make):
        assert_matches_reference(make())

    @settings(max_examples=40)
    @given(
        st.one_of(st.none(), st.floats(0.1, 1.45)),
        st.integers(2, 60),
        st.integers(0, 2**16),
        st.sampled_from([0.2, 0.5, 0.9]),
        st.sampled_from([-40.0, 0.0, 40.0]),
    )
    def test_mixed_families_match_reference(self, phi, n, seed, share, offset):
        # Lines at the top of the band among circles at random levels,
        # with some neighbours one ulp apart in t.
        tr = Transversal.geodesic() if phi is None else Transversal.hypercycle(phi)
        rng = np.random.default_rng(seed)
        bound = tr.curvature_bound
        h = np.where(rng.random(n) < share, bound, rng.uniform(-bound, bound, n))
        t = np.sort(offset + rng.uniform(-2.0, 2.0, n))
        close = rng.random(n - 1) < 0.2
        t[1:][close] = np.nextafter(t[:-1][close], math.inf)
        t = np.maximum.accumulate(t)
        assert_matches_reference(synthesize(Route(tr, t, h), force=True))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _forced_slice(Transversal.geodesic(), 3, n=60),
            lambda: _forced_slice(Transversal.hypercycle(0.8), 2, seed=1, n=60),
            lambda: synthesize(builtin_route("custom_constant_max", n=60)),
            lambda: TestRunProbes.probe_boundary_slice(),
        ],
        ids=["mixed-geodesic", "mixed-0.8", "constant-max", "probe-boundary"],
    )
    def test_links_and_probes_with_a_line_stay_open(self, make, monkeypatch):
        # The nesting certificate holds for discs only: a link or probe
        # with a line carrier, screened with the boundary at 0, is never
        # cleared, however plainly its pair is apart.
        screen = foliation._screen
        cleared_lines = []

        def recording(*columns, boundary=BOUNDARY_TOL, **kwargs):
            unflagged, crossing = screen(*columns, boundary=boundary, **kwargs)
            if boundary == 0.0:
                half = len(columns) // 2
                line = np.isnan(columns[2]) | np.isnan(columns[half + 2])
                cleared_lines.append(int(np.count_nonzero(unflagged & line)))
            return unflagged, crossing

        slice_ = make()
        monkeypatch.setattr(foliation, "_screen", recording)
        report = verify_disjoint(slice_)
        monkeypatch.undo()
        assert cleared_lines and sum(cleared_lines) == 0
        assert _report_key(report) == _report_key(_reference_verify_disjoint(slice_))

    @pytest.mark.parametrize(
        "make, lines_only",
        [
            (lambda: synthesize(builtin_route("custom_constant_max", n=60)), True),
            (
                lambda: synthesize(
                    builtin_route(
                        "custom_constant_max", transversal=Transversal.hypercycle(0.9), n=60
                    )
                ),
                True,
            ),
            (
                lambda: synthesize(
                    Route(Transversal.horocycle(1.0), np.linspace(-2, 2, 60), np.zeros(60))
                ),
                True,
            ),
            (lambda: _forced_slice(Transversal.geodesic(), 3, n=60), False),
        ],
        ids=["constant-max-geodesic", "constant-max-0.9", "zero-horocycle", "mixed-geodesic"],
    )
    def test_a_family_of_lines_takes_the_line_steps_alone(self, make, lines_only, monkeypatch):
        # The pair screen of a family of lines runs neither the circle
        # steps nor the circle-line steps, which settle none of its pairs;
        # a family with circles runs both.  Links see circle columns only.
        slice_ = make()
        calls = set()
        for name in ("_screen_circles", "_screen_circle_line"):

            def recording(*args, step=getattr(foliation, name), name=name):
                calls.add((name, args[-1]))  # tangent: the pair screen's
                return step(*args)

            monkeypatch.setattr(foliation, name, recording)
        report = verify_disjoint(slice_)
        monkeypatch.undo()
        pair_steps = {("_screen_circles", True), ("_screen_circle_line", True)}
        assert (calls & pair_steps) == (set() if lines_only else pair_steps)
        assert _report_key(report) == _report_key(_reference_verify_disjoint(slice_))


class TestSingleRowRuns:
    """When every run is one row, each probe is the pair itself, so the
    audit screens that pair once, at the boundary tolerance."""

    @pytest.mark.parametrize("phi", [None, 0.9])
    def test_longer_runs_keep_every_probe(self, phi, monkeypatch):
        # A perturbed route has runs of one row among longer ones: each of
        # its probes is screened, the ones into a one-row run included.
        tr = Transversal.geodesic() if phi is None else Transversal.hypercycle(phi)
        route, _ = perturbed_invalid_route(tr, window=(-4.0, 4.0), n=241, seed=3)
        slice_ = synthesize(route, force=True)
        k = np.rint(slice_.t * tr.curvature_bound / math.log(2.0)).astype(np.intc)
        circles = foliation._slice_carriers(slice_, k)[0][:3]
        cleared = foliation._cleared_links(tr, circles, k)
        is_last = np.append(~cleared, True)
        runs = np.diff(np.flatnonzero(is_last), prepend=-1)
        assert 1 < runs.size < slice_.t.size and (runs == 1).any()
        probes = int(np.sum(np.repeat(np.arange(runs.size)[::-1], runs)))
        screen = foliation._screen
        at_zero = []

        def recording(*columns, boundary=BOUNDARY_TOL, **kwargs):
            if boundary == 0.0:
                at_zero.append(columns[0].size)
            return screen(*columns, boundary=boundary, **kwargs)

        monkeypatch.setattr(foliation, "_screen", recording)
        report = verify_disjoint(slice_)
        monkeypatch.undo()
        assert sum(at_zero) == slice_.t.size - 1 + probes
        assert _report_key(report) == _report_key(_reference_verify_disjoint(slice_))

    def test_open_links_screen_each_pair_once(self, monkeypatch):
        n = 300
        t = np.linspace(-2.0, 2.0, n)
        slice_ = synthesize(Route(Transversal.geodesic(), t, -np.tanh(2 * t)), force=True)
        report, screened = TestLinkScreen.screened_pairs(monkeypatch, slice_)
        assert not report.clean
        assert screened == (n - 1) + n * (n - 1) // 2

    def test_constant_max_screens_each_pair_once(self, monkeypatch):
        n = 200
        slice_ = synthesize(builtin_route("custom_constant_max", n=n))
        rows = _kernel_rows(monkeypatch)
        report, screened = TestLinkScreen.screened_pairs(monkeypatch, slice_)
        assert report.clean
        assert screened == (n - 1) + n * (n - 1) // 2
        # Every leaf is a line, and the screen settles line pairs: the
        # kernel takes none.
        assert rows == []


# --------------------------------------------------------------------------
# Crossings and boundary tangencies settled in numpy


def _boundary_tangent_slices(rng, count):
    """Geodesic families of leaves nearly tangent at the origin: levels
    h = -1 + delta with delta 0 or log-uniform in [1e-20, 1e-4], so the
    pairs touch or cross within a few powers of ten of ``BOUNDARY_TOL``
    above the axis, at their scale."""
    for _ in range(count):
        n = int(rng.integers(2, 9))
        t = np.sort(rng.uniform(-1.0, 1.0, n)) + float(rng.integers(-40, 41))
        delta = np.where(rng.random(n) < 0.2, 0.0, 10.0 ** rng.uniform(-20.0, -4.0, n))
        yield slice_of(list(zip(t.tolist(), (delta - 1.0).tolist())))


def _threshold_slices(rng):
    """Leaf families near each threshold of the audit: pairs touching
    within a few ulps of ``TANGENCY_TOL`` at their crossings, pairs
    around the float where their crossing passes ``BOUNDARY_TOL``, and
    families nearly tangent at the boundary."""
    for gap in (0.5e-9, 1e-9, 2e-9):
        for beta2 in (0.3, math.pi / 2, 2.5):
            for step in range(-3, 4):
                s2 = 1.0 + gap + step * math.ulp(1.0)
                yield slice_of([(0.0, -math.cos(1.0)), (math.log(s2), -math.cos(beta2))])
    for _ in range(20):
        phi = None if rng.random() < 0.25 else float(rng.uniform(0.1, 1.45))
        tr = Transversal.geodesic() if phi is None else Transversal.hypercycle(phi)
        bound = tr.curvature_bound
        t1 = int(rng.integers(-60, 61)) * math.log(2.0) / bound + rng.uniform(-0.3, 0.3)
        h1 = float(rng.uniform(-0.9, 0.9)) * bound
        yield from _switch_slices(tr, t1, h1, t1 + float(rng.uniform(0.01, 1.5)))[::4]
    yield from _boundary_tangent_slices(rng, 60)


def _assert_referee_agrees(slice_):
    """The audit's report on the slice against the exact referee, pair by
    pair, outside a band of 2**-40 times the pair's size at the lower
    leaf's scale: a pair the referee finds flagged is flagged with its
    kind, at about its witness, and one it finds unflagged is not.
    Returns how many pairs the referee decided, by its kind (None for
    unflagged), with ``boundary tangent`` for the unflagged pairs that
    the screen's tangency rule settles."""
    report = verify_disjoint(slice_)
    flagged = {(c.t1, c.t2): c for c in (*report.intersecting, *report.tangent)}
    checked = collections.Counter()
    tr, ts, hs = slice_.transversal, slice_.t.tolist(), slice_.h.tolist()
    for a in range(len(ts)):
        k = _scale_exponent(tr, ts[a])
        leaf = _scaled_leaf_map(tr, -k)
        lower = leaf(ts[a], hs[a]).shape
        for b in range(a + 1, len(ts)):
            upper = leaf(ts[b], hs[b]).shape
            # The band: a few hundred ulps of the pair's size, at its scale.
            size = sum(abs(v) for s in (lower, upper) for v in vars(s).values())
            verdict = _exact_contact(lower, upper, 2.0**-40 * size)
            if verdict is None:
                continue
            kind, point = verdict
            contact = flagged.get((ts[a], ts[b]))
            assert (contact and contact.kind) == kind, (ts[a], ts[b], hs[a], hs[b])
            if kind in ("transverse", "tangent"):
                x, y = (math.ldexp(float(v), k) for v in point)
                assert contact.x == pytest.approx(x, abs=1e-6 * math.ldexp(size, k))
                assert contact.y == pytest.approx(y, abs=1e-6 * math.ldexp(size, k))
            columns = _leaf_columns(lower) + _leaf_columns(upper)
            if kind is None and not foliation._screen(*columns)[0][0]:
                if foliation._screen(*columns, tangent=True)[0][0]:
                    kind = "boundary tangent"  # settled by the tangency rule
            checked[kind] += 1
    return checked


#: Slice rows (phi, t1, h1, t2, h2) of pairs whose witness's last bits
#: need ``math.hypot`` (the first) and Python's ``r**2`` (the second).
WITNESS_BIT_ROWS = [
    (0.35489726107746244, 0.38614347687689854, 0.26082396844956746,
     1.2076802587754916, -0.17954421798211295),
    (None, 0.282592119995575, 0.8031644569670515, 0.9529929435325157,
     -0.4049331149943346),
]


class TestNumpyWitness:
    """The audit's witnesses and boundary tangencies are the scalar
    reference's, bit for bit, and the exact referee's outside a band
    around each threshold."""

    def test_exact_referee_agrees_outside_the_band(self):
        checked = collections.Counter()
        for slice_ in _threshold_slices(np.random.default_rng(2)):
            checked.update(_assert_referee_agrees(slice_))
        # Crossings with their witnesses, boundary tangencies the screen
        # settles, and other unflagged pairs.
        assert checked["transverse"] > 100 and checked["boundary tangent"] > 300

    def test_full_families_agree_with_the_referee(self):
        # Every pair of flagged families with lines, circles and horocycle
        # leaves, the kernel's verdicts included, without the scalar reference.
        routes = [Route(r.transversal, r.t[:30], r.h[:30]) for r in _fallback_routes()]
        routes += [
            perturbed_invalid_route(tr, n=30, seed=2)[0]
            for tr in (Transversal.geodesic(), Transversal.hypercycle(0.5))
        ]
        checked = collections.Counter()
        for route in routes:
            checked.update(_assert_referee_agrees(synthesize(route, force=True)))
        assert checked["transverse"] > 500 and checked[None] > 1000

    def test_boundary_tangencies_settle_in_numpy(self, monkeypatch):
        rows = _kernel_rows(monkeypatch)
        report = verify_disjoint(synthesize(builtin_route("horospherical", n=200)))
        assert report.clean and rows == []
        screen, left_open = foliation._screen, []

        def recording(*columns, **kwargs):  # the pairs the pair screen leaves open
            unflagged, crossing = screen(*columns, **kwargs)
            if kwargs.get("tangent"):
                left_open.append(int(np.count_nonzero(~unflagged & ~crossing)))
            return unflagged, crossing

        monkeypatch.setattr(foliation, "_screen", recording)
        pairs = 0
        for slice_ in _boundary_tangent_slices(np.random.default_rng(3), 40):
            assert_matches_reference(slice_)
            pairs += slice_.t.size * (slice_.t.size - 1) // 2
        assert sum(left_open) < 0.2 * pairs

    def test_crossing_families_take_one_kernel_call(self, monkeypatch):
        rows = _kernel_rows(monkeypatch)
        t = np.linspace(-1.0, 1.0, 60)
        slices = [
            synthesize(Route(Transversal.geodesic(), t, -np.tanh(2 * t)), force=True),
            synthesize(
                Route(Transversal.hypercycle(0.9), t, -math.sin(0.9) * np.tanh(3 * t)), force=True
            ),
            synthesize(Route(Transversal.horocycle(1.0), 2 * t, np.full(60, -0.3)), force=True),
        ]
        for slice_ in slices:
            report = verify_disjoint(slice_)
            assert len(report.intersecting) > 1000
            assert _report_key(report) == _report_key(_reference_verify_disjoint(slice_))
        # Each audit's pairs fit one block, which the kernel takes in one call.
        assert len(rows) == len(slices)

    @pytest.mark.parametrize("phi, t1, h1, t2, h2", WITNESS_BIT_ROWS, ids=["hypot", "square"])
    def test_witness_bits_need_math_hypot_and_python_squares(self, phi, t1, h1, t2, h2):
        # In the first pair numpy's hypot rounds the centre distance, and
        # in the second numpy's r*r a squared radius, one ulp off
        # carrier_contact's, which moves the witness's last bits.
        tr = Transversal.geodesic() if phi is None else Transversal.hypercycle(phi)
        report = assert_matches_reference(slice_of([(t1, h1), (t2, h2)], tr))
        assert len(report.intersecting) == 1

    @pytest.mark.parametrize("phi", [None, 0.9])
    def test_crossings_below_the_normal_range_keep_their_bits(self, phi):
        # Near t L = -720 the unscaled carriers are subnormal, so scaling
        # their fields by 2**-k loses bits that the scaled crossing keeps.
        tr = Transversal.geodesic() if phi is None else Transversal.hypercycle(phi)
        L = tr.curvature_bound
        t = np.linspace(-722.0 / L, -718.0 / L, 41)
        slice_ = synthesize(Route(tr, t, -L * np.tanh(2 * (t - t.mean()))), force=True)
        report = verify_disjoint(slice_)
        assert len(report.intersecting) == 41 * 40 // 2
        assert _report_key(report) == _report_key(_reference_verify_disjoint(slice_, rebuild=True))
        assert _report_key(report) != _report_key(_reference_verify_disjoint(slice_))


@st.composite
def circle_pairs(draw):
    """Two circles reaching the boundary: touching at a point near height
    ``BOUNDARY_TOL`` (or anywhere) within a few ``TANGENCY_TOL`` of
    tangency, internally or externally, or crossing through a point
    within a few ulps of ``BOUNDARY_TOL``, or anywhere."""
    c = draw(_leaf_circles())
    r2 = draw(st.floats(1e-3, 3.0))
    mode = draw(st.sampled_from(["touch", "through", "any"]))
    if mode == "any":
        return c, draw(_leaf_circles())
    y = draw(
        st.one_of(
            st.integers(-4, 4).map(lambda k: BOUNDARY_TOL + k * math.ulp(BOUNDARY_TOL)),
            st.floats(-3 * BOUNDARY_TOL, 3 * BOUNDARY_TOL),
            st.floats(-1.0, 1.0),
        )
    )
    if not abs(y - c.cy) < c.radius:
        y = c.cy
    x = c.cx + draw(st.sampled_from([-1.0, 1.0])) * math.sqrt(c.radius**2 - (y - c.cy) ** 2)
    if mode == "through":
        psi = draw(st.floats(0.0, 2.0 * math.pi))
        return c, Circle(x - r2 * math.cos(psi), y - r2 * math.sin(psi), r2)
    # Along the normal at (x, y), offset by a gap around the tolerance.
    ux, uy = (x - c.cx) / c.radius, (y - c.cy) / c.radius
    gap = draw(st.one_of(
        st.integers(-8, 8).map(lambda k: k * TANGENCY_TOL / 2),
        st.floats(-4 * TANGENCY_TOL, 4 * TANGENCY_TOL),
    ))
    inside = draw(st.booleans())
    d = (r2 - gap if inside else -r2 - gap)
    return c, Circle(x - d * ux, y - d * uy, r2)


def _leaf_pairs(pairs):
    """The pairs whose circles both reach the boundary, so carry leaves."""
    return pairs.filter(
        lambda pair: all(abs(s.cy) <= s.radius for s in pair if isinstance(s, Circle))
    )


def assert_kernel_holds(first, second):
    """The contact kernel on one pair is the scalar reference, bit for bit:
    the kind and each point's ``repr``.  Both screens, the sweep's and the
    audit's (``_screen`` without and with ``tangent``), agree with it
    where they settle the pair; returns which of the two settled it."""
    leaves = _leaf_of(first), _leaf_of(second)
    contact, want = carrier_contact(*leaves), _reference_contact(*leaves)
    assert (contact.kind, repr(contact.points)) == (want.kind, repr(want.points))
    settled = []
    for tangent in (False, True):
        unflagged, crossing = foliation._screen(
            *_leaf_columns(first), *_leaf_columns(second), tangent=tangent
        )
        _assert_settled_as(want, unflagged[0], crossing[0], tangent)
        settled.append(bool(unflagged[0] or crossing[0]))
    return settled


def _assert_settled_as(want, unflagged, crossing, tangent):
    """A screen's verdict on one pair, where it settles the pair, is the
    reference contact ``want``'s (``tangent``: the audit's screen)."""
    if unflagged:
        assert upper_contact(want) is None  # coincident carriers have a witness
        assert tangent or want.kind != "tangent"
    if crossing:
        assert want.kind == "transverse" and upper_contact(want) is not None


def _audit_pair(phi, t1, h1, t2, h2):
    """The carriers the audit intersects for the slice rows (t1, h1) and
    (t2, h2): both scaled by 2**-k of the lower leaf."""
    tr = Transversal.geodesic() if phi is None else Transversal.hypercycle(phi)
    leaf = _scaled_leaf_map(tr, -_scale_exponent(tr, t1))
    return leaf(t1, h1).shape, leaf(t2, h2).shape


def _random_shape(rng):
    """A circle reaching the boundary, or a line; a third of them lines."""
    if rng.random() < 1 / 3:
        theta = rng.choice([0.0, math.pi / 2, rng.uniform(0.0, math.pi)])
        return Line(rng.uniform(-2, 2), rng.uniform(0, 2), math.cos(theta), math.sin(theta))
    cy = rng.uniform(-2.0, 2.0)
    return Circle(rng.uniform(-2.0, 2.0), cy, abs(cy) + rng.uniform(1e-3, 3.0))


class TestContactKernelDifferential:
    """The columnar contact kernel against the scalar reference."""

    # Near-tangent circles where numpy's hypot puts the gap at or below
    # TANGENCY_TOL and math's above it: carrier_contact finds them crossing
    # 4.2e-5 above the axis, though they touch below it within the gap.
    @example((
        Circle(0.12999623312718223, -0.8722446451041523, 3.7708115095577366),
        Circle(-2.811632329581056, -0.17283355262622838, 0.747178848142856),
    ))
    # Tangent circles touching 3.0e-16 above BOUNDARY_TOL, by
    # carrier_contact, and 3.6e-16 below it by numpy's arithmetic.
    @example((
        Circle(-0.4250947082725829, -1.765527585444179, 2.6681408533589854),
        Circle(-1.475976046198054, -0.8380664391284117, 1.2665218736339727),
    ))
    @example(_audit_pair(*WITNESS_BIT_ROWS[0]))
    @example(_audit_pair(*WITNESS_BIT_ROWS[1]))
    @settings(max_examples=150)
    @given(_leaf_pairs(circle_pairs()))
    def test_circle_pairs(self, pair):
        assert_kernel_holds(*pair)

    @settings(max_examples=60)
    @given(circle_line_pairs(), st.booleans())
    def test_circle_line_pairs(self, pair, line_first):
        assert_kernel_holds(*(pair[::-1] if line_first else pair))

    @settings(max_examples=60)
    @given(line_pairs())
    def test_line_pairs(self, pair):
        assert_kernel_holds(*pair)

    def test_rows_of_every_shape_in_one_call(self):
        # Circles and lines mixed in one call, each row the reference's.
        rng = np.random.default_rng(5)
        pairs = [(_random_shape(rng), _random_shape(rng)) for _ in range(3000)]
        columns = zip(*(_leaf_columns(a) + _leaf_columns(b) for a, b in pairs))
        kind, points, out = foliation._carrier_contacts(*map(np.concatenate, columns))
        assert not out.any()
        kinds = ("none", *foliation.CONTACT_KINDS)
        for p, (a, b) in enumerate(pairs):
            want = _reference_contact(_leaf_of(a), _leaf_of(b))
            flat = [v for point in want.points for v in point]
            flat += [math.nan] * (4 - len(flat))
            assert (kinds[kind[p] + 1], [repr(float(v[p])) for v in points]) == (
                want.kind, list(map(repr, flat))
            )


def _settling_nothing(monkeypatch):
    """Patch ``_screen`` to settle no pair, so that every pair, link and
    probe stays open and every pair goes through the contact kernel."""

    def nothing(*columns, **_):
        unsettled = np.zeros(columns[0].size, dtype=bool)
        return unsettled, unsettled.copy()

    monkeypatch.setattr(foliation, "_screen", nothing)


def _fallback_routes():
    """Families of 60 leaves, each with flagged pairs: a perturbed draw,
    the geodesic's -tanh 2t, lines alternating with circles on a
    hypercycle, and lines and circles on a horocycle."""
    t = np.linspace(-1.0, 1.0, 60)
    sphi = math.sin(0.9)
    return [
        perturbed_invalid_route(Transversal.hypercycle(0.9), n=60, seed=4)[0],
        Route(Transversal.geodesic(), t, -np.tanh(2 * t)),
        Route(Transversal.hypercycle(0.9), t, np.resize([sphi, -0.5 * sphi], 60)),
        Route(Transversal.horocycle(2.0), 2 * t, np.resize([0.0, -0.3, -1.0, -0.5], 60)),
    ]


class TestFallback:
    """The contact kernel alone, with the screen settling nothing, gives
    the verdicts the screen and the kernel give."""

    @pytest.mark.parametrize(
        "route",
        _fallback_routes(),
        ids=["perturbed-hypercycle", "geodesic", "mixed-hypercycle", "horocycle"],
    )
    def test_audit_through_the_kernel_alone(self, monkeypatch, route):
        slice_ = synthesize(route, force=True)
        report = verify_disjoint(slice_)
        assert not report.clean
        rows = _kernel_rows(monkeypatch)
        _settling_nothing(monkeypatch)
        fallback = verify_disjoint(slice_)
        n = slice_.t.size
        assert sum(rows) == n * (n - 1) // 2
        assert _report_key(fallback) == _report_key(report)

    @pytest.mark.parametrize("family", ["geodesic", "hypercycle"])
    def test_sweep_through_the_kernel_alone(self, monkeypatch, family):
        stats = run_disjointness_agreement(family, 400, 3)
        rows = _kernel_rows(monkeypatch)
        _settling_nothing(monkeypatch)
        assert run_disjointness_agreement(family, 400, 3) == stats
        assert sum(rows) == stats.total - stats.skipped_margin


# --------------------------------------------------------------------------
# The link and probe certificate against the exact referee


def _certified_pairs(monkeypatch, slice_):
    """The pairs (a, b), a < b, that the audit's link and probe
    certificate clears unscreened (the ones ``_probed_pairs`` does not
    yield), and how many of them span an open link, so a probe clears
    them."""
    n = slice_.t.size
    screened = np.zeros((n, n), dtype=bool)
    runs = []
    probed = foliation._probed_pairs

    def recording(columns, k, cleared):
        runs.append(np.cumsum(np.append(False, ~cleared)))  # each row's run
        for i, j in probed(columns, k, cleared):
            screened[i, j] = True
            yield i, j

    with monkeypatch.context() as patch:
        patch.setattr(foliation, "_probed_pairs", recording)
        verify_disjoint(slice_)
    a, b = np.nonzero(np.triu(~screened, 1))
    return list(zip(a.tolist(), b.tolist())), int((runs[0][a] != runs[0][b]).sum())


def _assert_referee_clears(slice_, pairs):
    """The exact referee finds nothing flagged on each pair, outside a
    band of 2**-40 times the pair's size at the lower leaf's scale;
    returns the number of pairs checked."""
    tr, ts, hs = slice_.transversal, slice_.t.tolist(), slice_.h.tolist()
    leaves = {}
    for a, b in pairs:
        k = _scale_exponent(tr, ts[a])
        for index in (a, b):
            if (index, k) not in leaves:
                leaves[index, k] = _scaled_leaf_map(tr, -k)(ts[index], hs[index]).shape
        lower, upper = leaves[a, k], leaves[b, k]
        size = sum(abs(v) for s in (lower, upper) for v in vars(s).values())
        verdict = _exact_contact(lower, upper, 2.0**-40 * size)
        assert verdict in (None, (None, None)), (ts[a], ts[b], hs[a], hs[b], verdict)
    return len(pairs)


def _certificate_slices():
    """Families of 20 to 30 leaves on the geodesic and on phi = 0.5 and 0.9:
    valid and perturbed draws; near the link threshold as in
    ``chained_slices``, valid draws with margins down to 1e-9 (near the
    pencil) on windows up to 40 wide at offsets -40, 0 and +40, each also
    with one leaf given another admissible level; and wide families on
    t L in [-200, 200], whose far pairs leave the float range at their
    lower leaf's scale: ``constant``, ``totally_geodesic`` and a valid
    draw stretched onto that window, with ``TestRunProbes.wide_slice``."""
    rng = np.random.default_rng(7)
    yield TestRunProbes.wide_slice(30)
    for tr in (Transversal.geodesic(), Transversal.hypercycle(0.5), Transversal.hypercycle(0.9)):
        bound = tr.curvature_bound
        wide = (-200.0 / bound, 200.0 / bound)
        yield synthesize(builtin_route("constant", tr, window=wide, n=24, c=0.5 * bound))
        yield synthesize(builtin_route("totally_geodesic", tr, window=wide, n=24))
        drawn = random_valid_route(tr, n=24, seed=3)
        yield synthesize(Route(tr, drawn.t * (100.0 / bound), drawn.h))
        yield synthesize(random_valid_route(tr, n=30, seed=1))
        yield synthesize(perturbed_invalid_route(tr, n=30, seed=1)[0], force=True)
        for offset, half, margin in ((-40.0, 2.0, 1e-9), (0.0, 12.0, 1e-6), (40.0, 20.0, 1e-9)):
            window = (offset - half, offset + half)
            route = random_valid_route(tr, window=window, n=20, margin=margin, seed=2)
            yield synthesize(route)
            h = route.h.copy()
            h[rng.integers(h.size)] = rng.uniform(-bound, bound)
            yield synthesize(Route(tr, route.t, h), force=True)


class TestCertificateReferee:
    """Every pair the link and probe certificate clears without screening
    it is one the exact referee finds neither crossing above the boundary
    nor tangent, outside a band around each threshold."""

    def test_cleared_pairs_are_exactly_apart(self, monkeypatch):
        checked = probed = 0
        for slice_ in _certificate_slices():
            pairs, spanning = _certified_pairs(monkeypatch, slice_)
            checked += _assert_referee_clears(slice_, pairs)
            probed += spanning
        assert checked > 3000 and probed > 300

    def test_a_certificate_clearing_every_link_fails(self, monkeypatch):
        def every_link(tr, columns, k):
            return np.ones(k.size - 1, dtype=bool)

        monkeypatch.setattr(foliation, "_cleared_links", every_link)
        route, _ = perturbed_invalid_route(Transversal.hypercycle(0.9), n=30, seed=1)
        slice_ = synthesize(route, force=True)
        pairs, _ = _certified_pairs(monkeypatch, slice_)
        with pytest.raises(AssertionError):
            _assert_referee_clears(slice_, pairs)
