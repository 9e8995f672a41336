import math

import numpy as np
import pytest

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
