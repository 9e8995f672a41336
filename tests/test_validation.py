import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umbilic import (
    DomainError,
    Route,
    Transversal,
    detect_zones,
    lipschitz_profile,
    min_curvature_rate,
    profile_inverse,
    validate_c0,
    validate_c1,
    validate_horocycle,
)
from umbilic.validation import (
    _WINDOW_NOTE,
    Verdict,
    Violation,
    _effective_phi,
    _structure_violations,
)

PHI_GRID = [math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2]


def interior_levels(phi, n=200, inset=0.01):
    b = math.sin(phi)
    return np.linspace(-b * (1 - inset), b * (1 - inset), n)


class TestProfile:
    def test_frozen_value(self):
        assert lipschitz_profile(math.pi / 4, 0.5) == pytest.approx(
            -1.5398525354819517, abs=1e-12
        )

    def test_geodesic_specialization(self):
        for h in np.linspace(-0.999, 0.999, 500):
            assert lipschitz_profile(math.pi / 2, h) == pytest.approx(
                -math.atanh(h), abs=1e-12
            )

    def test_zero_level(self):
        # F(phi, 0) = ln(1) = 0 for every phi.
        for phi in PHI_GRID:
            assert lipschitz_profile(phi, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_divergence_signals(self):
        b = math.sin(0.8)
        assert lipschitz_profile(0.8, b) == -math.inf
        assert lipschitz_profile(0.8, -b) == math.inf
        assert lipschitz_profile(0.8, b + 0.1) == -math.inf
        assert lipschitz_profile(0.8, -b - 0.1) == math.inf

    def test_one_ulp_above_the_lower_pin(self):
        # The denominator rounds to exactly 0 at this level.
        phi = 0.43742266719028233
        h = math.nextafter(-math.sin(phi), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lipschitz_profile(phi, h) == math.inf

    def test_lower_pin_where_the_denominator_rounds_negative(self):
        # sin(phi) rounds to 1, so at h = -1 the denominator is -cos(phi).
        phi = math.nextafter(math.pi / 2, 0.0)
        h = np.array([-1.0, math.nextafter(-1.0, 0.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lipschitz_profile(phi, -1.0) == math.inf
            f = lipschitz_profile(phi, h)
        assert f[0] == math.inf
        assert not np.isnan(f).any()

    def test_arrays_keep_their_shape(self):
        phi = 0.7
        b = math.sin(phi)
        h = np.array([[-b, -0.3], [0.2, b]])
        f = lipschitz_profile(phi, h)
        rate = min_curvature_rate(phi, h)
        assert f.shape == rate.shape == h.shape
        for k in np.ndindex(h.shape):
            assert f[k] == pytest.approx(lipschitz_profile(phi, float(h[k])), abs=5e-16)
            assert rate[k] == pytest.approx(
                min_curvature_rate(phi, float(h[k])), abs=5e-16
            )

    def test_phi_domain(self):
        with pytest.raises(DomainError):
            lipschitz_profile(0.0, 0.0)
        with pytest.raises(DomainError):
            lipschitz_profile(math.pi / 2 + 0.1, 0.0)

    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_strictly_decreasing(self, phi):
        values = [lipschitz_profile(phi, h) for h in interior_levels(phi)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_near_geodesic_limit(self):
        # phi approaching pi/2 must approach the geodesic profile.
        phi = math.pi / 2 - 1e-6
        for h in np.linspace(-0.9, 0.9, 50):
            assert lipschitz_profile(phi, h) == pytest.approx(
                -math.atanh(h), abs=1e-4
            )


def _bisect_inverse(phi, y):
    """Reference inverse of the strictly decreasing profile, by bisection."""
    lo, hi = -math.sin(phi), math.sin(phi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if lipschitz_profile(phi, mid) > y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestProfileInverse:
    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_roundtrip(self, phi):
        for h in interior_levels(phi, n=60):
            y = lipschitz_profile(phi, h)
            assert profile_inverse(phi, y) == pytest.approx(h, abs=1e-10)

    # Beyond |y| ~ 12 the profile is so steep near the pins that one ulp
    # of h moves y by more than 1e-9, so the forward roundtrip can only
    # be tight on a moderate range.
    @given(
        st.sampled_from([0.3, 0.7, 1.2]), st.floats(-12, 12, allow_nan=False)
    )
    def test_forward_roundtrip(self, phi, y):
        h = profile_inverse(phi, y)
        assert lipschitz_profile(phi, h) == pytest.approx(y, abs=1e-9, rel=1e-9)

    @given(
        st.floats(0.05, math.pi / 2, exclude_max=True),
        st.floats(-745, 745, allow_nan=False),
    )
    def test_stays_in_band(self, phi, y):
        b = math.sin(phi)
        assert -b <= profile_inverse(phi, y) <= b

    @given(
        st.floats(0.1, math.pi / 2, exclude_max=True),
        st.floats(-20, 20, allow_nan=False),
    )
    def test_matches_bisection(self, phi, y):
        assert abs(profile_inverse(phi, y) - _bisect_inverse(phi, y)) <= 1e-15

    @pytest.mark.parametrize("phi", [0.2, 0.7, 1.3])
    @pytest.mark.parametrize("y", [-745.0, -709.0, -40.0, 40.0, 709.0, 745.0])
    def test_no_overflow_far_out(self, phi, y):
        # e^y overflows past 709; the closed form only ever forms e^-|y|.
        b = math.sin(phi)
        expected = -b if y > 0 else b
        assert profile_inverse(phi, y) == pytest.approx(expected, abs=1e-15)

    def test_infinite_targets(self):
        b = math.sin(0.7)
        assert profile_inverse(0.7, math.inf) == -b
        assert profile_inverse(0.7, -math.inf) == b

    def test_geodesic_fast_path(self):
        assert profile_inverse(math.pi / 2, 1.3) == pytest.approx(
            -math.tanh(1.3), abs=1e-15
        )


class TestCurvatureRate:
    def test_geodesic_specialization(self):
        for h in np.linspace(-0.999, 0.999, 500):
            assert min_curvature_rate(math.pi / 2, h) == pytest.approx(
                h * h - 1.0, abs=1e-12
            )

    @pytest.mark.parametrize("phi", [0.3, 0.8, 1.2])
    def test_zero_level_value(self, phi):
        # At h = 0 the rate reduces to cos(phi) - 1.
        assert min_curvature_rate(phi, 0.0) == pytest.approx(
            math.cos(phi) - 1.0, abs=1e-12
        )

    @pytest.mark.parametrize("phi", [0.3, 0.8, 1.2, math.pi / 2])
    def test_vanishes_at_pins(self, phi):
        b = math.sin(phi)
        assert min_curvature_rate(phi, b) == 0.0
        assert min_curvature_rate(phi, -b) == 0.0

    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_negative_inside(self, phi):
        for h in interior_levels(phi):
            assert min_curvature_rate(phi, h) < 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            min_curvature_rate(0.5, 0.9)
        with pytest.raises(DomainError):
            min_curvature_rate(0.5, np.array([0.0, 0.9]))

    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_duality_with_profile(self, phi):
        # dF/dh * rate = sin(phi): the rate is exactly the reciprocal
        # slope of the profile, scaled by the transversal's rate bound.
        eps = 1e-6
        for h in interior_levels(phi, n=100):
            dF = (
                lipschitz_profile(phi, h + eps) - lipschitz_profile(phi, h - eps)
            ) / (2 * eps)
            assert dF * min_curvature_rate(phi, h) == pytest.approx(
                math.sin(phi), abs=1e-6
            )


class TestRoute:
    def test_requires_increasing_t(self):
        tr = Transversal.geodesic()
        with pytest.raises(DomainError):
            Route(tr, [0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            Route(tr, [1.0, 0.0], [0.0, 0.0])

    def test_shape_checks(self):
        tr = Transversal.geodesic()
        with pytest.raises(DomainError):
            Route(tr, [0.0, 1.0], [0.0])
        with pytest.raises(DomainError):
            Route(tr, [0.0, 1.0], [0.0, 0.0], dh=[0.0])
        with pytest.raises(DomainError):
            Route(tr, [], [])

    def test_nan_level_rejected(self):
        # A nan level would pass as an interior sample with no defined F.
        with pytest.raises(DomainError, match="nan"):
            Route(Transversal.geodesic(), [0.0, 1.0, 2.0], [0.1, math.nan, 0.2])

    def test_nan_derivative_rejected(self):
        # A nan derivative would compare false against every rate bound.
        with pytest.raises(DomainError, match="nan"):
            Route(
                Transversal.geodesic(), [0.0, 1.0, 2.0], [0.1, 0.0, -0.1],
                dh=[0.0, math.nan, 0.0],
            )

    def test_out_of_bound_h_is_representable(self):
        # Bound violations are a validation verdict, not a constructor error.
        r = Route(Transversal.horocycle(1.0), [0.0, 1.0], [0.5, 0.5])
        assert r.n == 2

    def test_window(self):
        r = Route(Transversal.geodesic(), [-1.0, 0.0, 2.0], [0.0, 0.0, 0.0])
        assert r.window == (-1.0, 2.0)


def geodesic_route(t, h, **kw):
    return Route(Transversal.geodesic(), t, h, **kw)


class TestDetectZones:
    def test_leading_low_run(self):
        t = np.array([-3.0, -2.5, -2.0, -1.0, 0.0])
        h = np.array([-1.0, -1.0, -1.0, -0.3, 0.0])
        zones = detect_zones(geodesic_route(t, h))
        assert zones.t_minus == -2.0
        assert zones.t_plus == math.inf

    def test_trailing_high_run(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        h = np.array([0.1, 0.5, 1.0, 1.0])
        zones = detect_zones(geodesic_route(t, h))
        assert zones.t_minus == -math.inf
        assert zones.t_plus == 2.0

    def test_interior_only(self):
        zones = detect_zones(geodesic_route([0.0, 1.0], [0.2, 0.3]))
        assert zones.t_minus == -math.inf
        assert zones.t_plus == math.inf

    def test_runs_of_one_sample(self):
        zones = detect_zones(geodesic_route([0.0, 1.0, 2.0], [-1.0, 0.0, 1.0]))
        assert (zones.t_minus, zones.t_plus) == (0.0, 2.0)

    def test_all_pinned_low(self):
        zones = detect_zones(geodesic_route([0.0, 1.0], [-1.0, -1.0]))
        assert zones.t_minus == 1.0


class TestValidateC0:
    def test_pencil_is_valid(self):
        t = np.linspace(-3, 3, 121)
        verdict = validate_c0(geodesic_route(t, -np.tanh(t)))
        assert verdict.valid
        assert abs(verdict.worst_slack) <= 1e-9
        assert not verdict.violations

    def test_too_steep_profile_fails_with_pairs(self):
        # h = -tanh(2t) doubles the profile growth rate.
        t = np.linspace(-1, 1, 21)
        verdict = validate_c0(geodesic_route(t, -np.tanh(2 * t)))
        assert not verdict.valid
        assert all(v.kind == "pair" for v in verdict.violations)
        # Worst pair spans the whole window: slack = (t1-t0) - 2(t1-t0).
        assert verdict.worst_slack == pytest.approx(-2.0, abs=1e-9)

    def test_violations_sorted_by_pair(self):
        t = np.linspace(-1, 1, 21)
        verdict = validate_c0(geodesic_route(t, -np.tanh(2 * t)))
        keys = [(v.t1, v.t2) for v in verdict.violations]
        assert keys == sorted(keys)

    def test_fast_shrinking_profile_valid_one_sided_only(self):
        # h = +tanh 2t makes the profile drop at twice the rate bound;
        # one-sided growth holds while the two-sided estimate fails,
        # which lands in the notes without affecting validity.
        t = np.linspace(-2, 2, 41)
        verdict = validate_c0(geodesic_route(t, np.tanh(2 * t)))
        assert verdict.valid
        assert any("two-sided" in note and "fails" in note for note in verdict.notes)

    def test_reversed_pencil_two_sided_note(self):
        # h = +tanh t saturates the two-sided estimate exactly.
        t = np.linspace(-2, 2, 41)
        verdict = validate_c0(geodesic_route(t, np.tanh(t)))
        assert verdict.valid
        assert any("two-sided" in note and "holds" in note for note in verdict.notes)

    def test_bound_violation(self):
        verdict = validate_c0(geodesic_route([0.0, 1.0], [0.0, 1.5]))
        assert not verdict.valid
        assert verdict.violations[0].kind == "bound"
        assert verdict.violations[0].slack == pytest.approx(-0.5)

    def test_low_pin_in_the_middle_is_a_zone_violation(self):
        verdict = validate_c0(geodesic_route([0.0, 1.0, 2.0], [-1.0, 0.0, -1.0]))
        assert not verdict.valid
        kinds = {v.kind for v in verdict.violations}
        assert kinds == {"zone"}
        assert verdict.worst_slack == -math.inf

    def test_high_pin_before_interior_is_a_zone_violation(self):
        verdict = validate_c0(geodesic_route([0.0, 1.0], [1.0, 0.0]))
        assert not verdict.valid
        assert verdict.violations[0].kind == "zone"

    def test_legal_pin_pattern(self):
        t = [-2.0, -1.0, 0.0, 1.0, 2.0]
        h = [-1.0, -1.0, 0.0, 1.0, 1.0]
        verdict = validate_c0(geodesic_route(t, h))
        assert verdict.valid
        assert verdict.zones.t_minus == -1.0
        assert verdict.zones.t_plus == 1.0

    def test_horocycle_rejected(self):
        r = Route(Transversal.horocycle(1.0), [0.0, 1.0], [0.0, 0.0])
        with pytest.raises(DomainError):
            validate_c0(r)

    def test_window_note_always_present(self):
        verdict = validate_c0(geodesic_route([0.0, 1.0], [0.0, 0.0]))
        assert any("window" in note for note in verdict.notes)


def _reference_validate_c0(route: Route) -> Verdict:
    """The pairwise definition of validate_c0: every interior pair, one
    numpy row per first sample, O(n^2)."""
    phi_eff = _effective_phi(route.transversal)
    bound = route.transversal.curvature_bound
    L = bound
    tol = route.tol
    violations, interior, _ = _structure_violations(route, bound)
    worst = math.inf if not violations else min(v.slack for v in violations)

    tt = route.t[interior]
    ff = lipschitz_profile(phi_eff, route.h[interior])
    worst_two_sided = math.inf
    two_sided_at: tuple[float, float] | None = None
    for i in range(tt.size - 1):
        dt = tt[i + 1 :] - tt[i]
        df = ff[i + 1 :] - ff[i]
        slack = L * dt - df
        m = float(slack.min())
        if m < worst:
            worst = m
        for j in np.flatnonzero(slack < -tol):
            violations.append(
                Violation(
                    "pair", float(tt[i]), float(tt[i + 1 + j]), float(slack[j])
                )
            )
        other = L * dt + df
        m2 = float(other.min())
        if m2 < worst_two_sided:
            worst_two_sided = m2
            two_sided_at = (float(tt[i]), float(tt[i + 1 + int(other.argmin())]))

    notes = [_WINDOW_NOTE, "one-sided growth condition is the normative check"]
    if worst_two_sided < -tol:
        notes.append(
            "two-sided Lipschitz estimate fails by "
            f"{-worst_two_sided:.6g} at pair {two_sided_at}; this does not "
            "affect validity"
        )
    elif math.isfinite(worst_two_sided):
        notes.append("two-sided Lipschitz estimate also holds on this window")

    violations.sort(key=lambda v: (v.t1, v.t2 if not math.isnan(v.t2) else v.t1))
    return Verdict(
        valid=not violations,
        zones=detect_zones(route),
        worst_slack=worst,
        violations=tuple(violations),
        notes=tuple(notes),
        mode="c0",
    )


def _pair_slacks(route: Route) -> np.ndarray:
    """Every interior pair's slack, by the reference formula."""
    bound = route.transversal.curvature_bound
    _, interior, _ = _structure_violations(route, bound)
    tt = route.t[interior]
    ff = lipschitz_profile(_effective_phi(route.transversal), route.h[interior])
    i, j = np.triu_indices(tt.size, 1)
    return bound * (tt[j] - tt[i]) - (ff[j] - ff[i])


def _transversal(phi):
    return Transversal.geodesic() if phi == math.pi / 2 else Transversal.hypercycle(phi)


@st.composite
def c0_routes(draw):
    """Routes for the differential test: random walks in profile
    coordinates with over-steep steps, noisy levels with bound violations,
    uniform-grid constant and pencil routes, each optionally shifted in t,
    with pinned runs at either end, and a tolerance that may sit within a
    few ulps of one pair's slack."""
    phi = draw(st.one_of(st.just(math.pi / 2), st.floats(0.2, 1.4)))
    tr = _transversal(phi)
    b = tr.curvature_bound
    n = draw(st.integers(2, 60))
    shift = draw(st.sampled_from([-40.0, 0.0, 40.0]))
    family = draw(st.sampled_from(["walk", "jump", "noise", "constant", "pencil"]))
    if family == "pencil":
        tr, b = Transversal.geodesic(), 1.0
        lo, hi = draw(st.sampled_from([(-3, 3), (-3, 10), (-12, 12), (-30, 30)]))
        t = np.linspace(lo, hi, n)
        h = -np.tanh(t)
        shift = 0.0
    else:
        if draw(st.booleans()):
            t = np.linspace(-2.0, 2.0, n)
        else:
            steps = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
            t = np.cumsum(steps) - 2.0
        if family == "jump":
            # F + L t constant but for one drop: the two-sided slack fails
            # on every pair across the drop, all equal up to rounding.
            k = draw(st.integers(0, n - 1))
            y = -b * t - draw(st.floats(0.0, 2.0)) * (t >= t[k])
            h = np.array([profile_inverse(phi, v) for v in y])
        elif family == "walk":
            # Runs of slope exactly -b or +b make column bounds tie within
            # rounding, in the two-sided and in the one-sided slack.
            slope = st.one_of(
                st.sampled_from([-b, 0.0, b]), st.floats(-1.5 * b, 1.5 * b)
            )
            slopes = draw(st.lists(slope, min_size=n - 1, max_size=n - 1))
            y = np.concatenate(([0.0], np.cumsum(np.array(slopes) * np.diff(t))))
            h = np.array([profile_inverse(phi, v) for v in y])
        elif family == "noise":
            levels = draw(
                st.lists(st.floats(-1.1 * b, 1.1 * b), min_size=n, max_size=n)
            )
            h = np.array(levels)
        else:
            h = np.full(n, draw(st.floats(-0.99 * b, 0.99 * b)))
    t = t + shift
    lead = draw(st.integers(0, 3))
    trail = draw(st.integers(0, 3))
    if lead or trail:
        before = t[0] - 0.1 * np.arange(lead, 0, -1)
        after = t[-1] + 0.1 * np.arange(1, trail + 1)
        t = np.concatenate((before, t, after))
        h = np.concatenate((np.full(lead, -b), h, np.full(trail, b)))
    route = Route(tr, t, h)
    if draw(st.booleans()):
        slacks = _pair_slacks(route)
        negative = np.unique(slacks[slacks < 0])
        if negative.size:
            s = float(draw(st.sampled_from(negative.tolist())))
            tol = -s + draw(st.integers(-4, 4)) * math.ulp(s)
            route = Route(tr, t, h, tol=tol)
    return route


class TestValidateC0Differential:
    """validate_c0 must match the pairwise definition float for float."""

    @settings(max_examples=400)
    @given(c0_routes())
    def test_matches_pairwise_definition(self, route):
        assert repr(validate_c0(route)) == repr(_reference_validate_c0(route))

    @pytest.mark.parametrize(
        "window", [(-3, 3), (-3, 10), (-3, 12), (-12, 3), (-12, 12), (-30, 30)]
    )
    @pytest.mark.parametrize("n", [121, 400])
    def test_pencil_windows(self, window, n):
        t = np.linspace(*window, n)
        route = geodesic_route(t, -np.tanh(t))
        assert repr(validate_c0(route)) == repr(_reference_validate_c0(route))

    @pytest.mark.parametrize("shift", [-40.0, 0.0, 40.0])
    @pytest.mark.parametrize("phi", [0.5, 0.9, 1.1, math.pi / 2])
    def test_random_routes_shifted(self, phi, shift):
        from umbilic import perturbed_invalid_route, random_valid_route

        tr = _transversal(phi)
        window = (-2.0 + shift, 2.0 + shift)
        for seed in range(3):
            routes = [
                random_valid_route(tr, window=window, n=241, seed=seed),
                perturbed_invalid_route(tr, window=window, n=241, seed=seed)[0],
            ]
            for route in routes:
                assert repr(validate_c0(route)) == repr(_reference_validate_c0(route))

    @pytest.mark.parametrize("phi", [0.5, 1.1, math.pi / 2])
    @pytest.mark.parametrize("n", [40, 60, 121, 200])
    @pytest.mark.parametrize("drop", [0.1, 0.5, 1.0])
    def test_two_sided_ties(self, phi, n, drop):
        # F + L t is constant but for one drop at t = 0: the two-sided
        # slack fails on every pair across it, all equal up to rounding,
        # and the note must name the first pair of the exact minimum.
        tr = _transversal(phi)
        t = np.linspace(-2, 2, n)
        y = -tr.curvature_bound * t - drop * (t >= 0)
        route = Route(tr, t, np.array([profile_inverse(phi, v) for v in y]))
        assert repr(validate_c0(route)) == repr(_reference_validate_c0(route))

    def test_constant_and_totally_geodesic_grids(self):
        for tr in (Transversal.geodesic(), Transversal.hypercycle(0.8)):
            for c in (-0.3, 0.0, 0.6):
                h = np.full(300, c * tr.curvature_bound)
                route = Route(tr, np.linspace(-30, -25, 300), h)
                assert repr(validate_c0(route)) == repr(_reference_validate_c0(route))


class TestValidateC1:
    def test_pencil_with_exact_derivative(self):
        t = np.linspace(-3, 3, 121)
        h = -np.tanh(t)
        verdict = validate_c1(geodesic_route(t, h, dh=h * h - 1.0))
        assert verdict.valid
        assert abs(verdict.worst_slack) <= 1e-9

    def test_descending_too_fast_fails(self):
        # Constant slope below the rate bound's minimum (-1 at h=0).
        t = np.linspace(-1, 1, 41)
        h = -1.5 * t
        keep = np.abs(h) < 0.95
        verdict = validate_c1(geodesic_route(t[keep], h[keep], dh=np.full(keep.sum(), -1.5)))
        assert not verdict.valid
        assert any(v.kind == "pointwise" for v in verdict.violations)

    def test_finite_difference_fallback(self):
        t = np.linspace(-2, 2, 81)
        verdict = validate_c1(geodesic_route(t, np.zeros(81)))
        assert verdict.valid
        assert any("finite" in note for note in verdict.notes)

    def test_constant_family_valid_everywhere_legal(self):
        for tr in (Transversal.geodesic(), Transversal.hypercycle(0.8)):
            b = tr.curvature_bound
            for c in (-0.9 * b, 0.0, 0.9 * b):
                t = np.linspace(-2, 2, 31)
                r = Route(tr, t, np.full(31, c), dh=np.zeros(31))
                assert validate_c1(r).valid


class TestC0C1Consistency:
    @pytest.mark.parametrize("kind", ["geodesic", "hypercycle"])
    def test_smooth_routes_agree(self, kind):
        # On smooth samples with a clear margin the two validators agree.
        from umbilic import perturbed_invalid_route, random_valid_route

        tr = (
            Transversal.geodesic()
            if kind == "geodesic"
            else Transversal.hypercycle(0.9)
        )
        for seed in range(5):
            r = random_valid_route(tr, n=201, margin=0.2, seed=seed)
            hp = np.gradient(r.h, r.t)
            smooth = Route(tr, r.t, r.h, dh=hp)
            assert validate_c0(smooth).valid
            assert validate_c1(smooth).valid

            rb, _ = perturbed_invalid_route(tr, n=201, margin=0.2, seed=seed)
            v0 = validate_c0(rb)
            v1 = validate_c1(Route(tr, rb.t, rb.h))
            assert not v0.valid
            assert v0.worst_slack < -1e-4
            assert not v1.valid


class TestValidateHorocycle:
    def test_zero_route_valid(self):
        r = Route(Transversal.horocycle(1.0), np.linspace(-2, 2, 21), np.zeros(21))
        verdict = validate_horocycle(r)
        assert verdict.valid
        assert verdict.worst_slack == 0.0

    @pytest.mark.parametrize("c", [1e-6, -1e-6, 0.1, -0.5, 1.0])
    def test_constant_offsets_fail(self, c):
        r = Route(Transversal.horocycle(1.0), np.linspace(-2, 2, 21), np.full(21, c))
        verdict = validate_horocycle(r)
        assert not verdict.valid
        assert verdict.worst_slack == pytest.approx(-abs(c), abs=1e-15)

    def test_requires_horocycle(self):
        with pytest.raises(DomainError):
            validate_horocycle(geodesic_route([0.0, 1.0], [0.0, 0.0]))
