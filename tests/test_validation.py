import copy
import hashlib
import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from umbilic import (
    DomainError,
    InvalidRouteError,
    Route,
    Transversal,
    builtin_route,
    leaf_orthogonal_to_hypercycle,
    lipschitz_profile,
    min_curvature_rate,
    perturbed_invalid_route,
    profile_inverse,
    random_valid_route,
    synthesize,
    validate,
    validate_c0,
    validate_c1,
    validate_horocycle,
)
from umbilic import validation
from umbilic.validation import (
    _WINDOW_NOTE,
    Verdict,
    Violation,
    Violations,
    _effective_phi,
    _is_valid,
    _judge,
    _pair_scan,
    _structure_columns,
)

PHI_GRID = [math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2]


def pickle_round_trip(route):
    return pickle.loads(pickle.dumps(route))


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

    @given(
        st.sampled_from([0.05, 0.5, 0.9, 1.1, math.pi / 2]),
        st.lists(
            st.one_of(
                st.floats(allow_nan=False),
                st.sampled_from([0.0, -0.0, 1e-300, -1e-300, math.inf, -math.inf]),
            ),
            max_size=40,
        ),
    )
    def test_array_form_matches_the_float_form(self, phi, ys):
        # Bit for bit, signed zeros and infinities included.
        ys = np.array(ys, dtype=float)
        each = np.array([profile_inverse(phi, y) for y in ys.tolist()], dtype=float)
        assert profile_inverse(phi, ys).tobytes() == each.tobytes()
        assert all(type(profile_inverse(phi, y)) is float for y in ys.tolist())


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

    @pytest.mark.parametrize("f", [min_curvature_rate, lipschitz_profile, profile_inverse])
    def test_empty_array(self, f):
        # The profile, its inverse and the rate bound map an empty array alike.
        out = f(0.9, np.array([]))
        assert out.shape == (0,) and out.dtype == float

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

    def test_infinite_tol_rejected(self):
        # An infinite tolerance would forgive every violation.
        with pytest.raises(DomainError):
            Route(Transversal.geodesic(), [0.0, 1.0], [0.9, -0.9], tol=math.inf)

    def test_tol_at_the_curvature_bound_rejected(self):
        # At tol >= bound every route passes, with t_minus > t_plus.
        route = perturbed_invalid_route(Transversal.geodesic(), seed=3)[0]
        for tol in (1.0, 2.0):
            with pytest.raises(DomainError, match="tol"):
                replace(route, tol=tol)
        with pytest.raises(DomainError, match="tol"):
            Route(Transversal.hypercycle(0.5), [0.0], [0.0], tol=math.sin(0.5))
        assert Route(Transversal.horocycle(1.0), [0.0], [0.0], tol=5.0).tol == 5.0

    def test_infinite_t_span_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            Route(Transversal.geodesic(), [-1e308, 1e308], [0.0, 0.0])
        with pytest.raises(DomainError, match="finite"):
            builtin_route("totally_geodesic", window=(-1e308, 1e308))

    def test_out_of_bound_h_is_representable(self):
        # Bound violations are a validation verdict, not a constructor error.
        r = Route(Transversal.horocycle(1.0), [0.0, 1.0], [0.5, 0.5])
        assert r.n == 2

    def test_window(self):
        r = Route(Transversal.geodesic(), [-1.0, 0.0, 2.0], [0.0, 0.0, 0.0])
        assert (r.t[0], r.t[-1]) == (-1.0, 2.0)

    def test_columns_are_read_only_copies(self):
        # The route's verdict cannot change behind the validators' back.
        t, h, dh = np.linspace(0.0, 1.0, 5), np.zeros(5), np.zeros(5)
        route = Route(Transversal.geodesic(), t, h, dh=dh)
        for name in ("t", "h", "dh"):
            with pytest.raises(ValueError):
                getattr(route, name)[0] = 0.5
        t[1], h[0], dh[0] = 2.0, 0.9, 1.0
        assert route.t.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert route.h.tolist() == route.dh.tolist() == [0.0] * 5

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, pickle_round_trip])
    def test_copies_are_built_again(self, clone):
        # A copy's columns are read-only again, and it is judged afresh.
        drawn = random_valid_route(Transversal.hypercycle(0.9), n=7, seed=2)
        route = replace(drawn, dh=np.zeros(7))
        assert validate_c0(route).valid and route._valid
        twin = clone(route)
        assert twin._valid is None and twin.tol == route.tol
        assert twin.transversal == route.transversal
        for name in ("t", "h", "dh"):
            assert getattr(twin, name).tobytes() == getattr(route, name).tobytes()
            with pytest.raises(ValueError):
                getattr(twin, name)[0] = 0.5


def geodesic_route(t, h, **kw):
    return Route(Transversal.geodesic(), t, h, **kw)


class TestVerdictZones:
    def test_leading_low_run(self):
        t = np.array([-3.0, -2.5, -2.0, -1.0, 0.0])
        h = np.array([-1.0, -1.0, -1.0, -0.3, 0.0])
        zones = validate_c0(geodesic_route(t, h)).zones
        assert zones.t_minus == -2.0
        assert zones.t_plus == math.inf

    def test_trailing_high_run(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        h = np.array([0.1, 0.5, 1.0, 1.0])
        zones = validate_c0(geodesic_route(t, h)).zones
        assert zones.t_minus == -math.inf
        assert zones.t_plus == 2.0

    def test_interior_only(self):
        zones = validate_c0(geodesic_route([0.0, 1.0], [0.2, 0.3])).zones
        assert zones.t_minus == -math.inf
        assert zones.t_plus == math.inf

    def test_runs_of_one_sample(self):
        zones = validate_c0(geodesic_route([0.0, 1.0, 2.0], [-1.0, 0.0, 1.0])).zones
        assert (zones.t_minus, zones.t_plus) == (0.0, 2.0)

    def test_all_pinned_low(self):
        zones = validate_c0(geodesic_route([0.0, 1.0], [-1.0, -1.0])).zones
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
    parts, interior, zones = _structure_columns(route, bound)
    violations = [v for part in parts for v in Violations(*part)]
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
        kept = np.flatnonzero(~np.isnan(other))  # inf - inf pairs are skipped
        if kept.size:
            j = int(kept[other[kept].argmin()])
            if other[j] < worst_two_sided:
                worst_two_sided = float(other[j])
                two_sided_at = (float(tt[i]), float(tt[i + 1 + j]))

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
        zones=zones,
        worst_slack=worst,
        violations=tuple(violations),
        notes=tuple(notes),
        mode="c0",
    )


def _pair_slacks(route: Route) -> np.ndarray:
    """Every interior pair's slack, by the reference formula."""
    bound = route.transversal.curvature_bound
    _, interior, _ = _structure_columns(route, bound)
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
        # Route takes tolerances below the curvature bound only.
        negative = np.unique(slacks[(slacks < 0) & (slacks > -b / 2)])
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


@st.composite
def tied_routes(draw):
    """Uniform-grid routes whose column bounds tie within rounding, in the
    one-sided or the two-sided slack: the pencil F = L t, the reversed
    pencil F = -L t, ``totally_geodesic`` and ``constant``, on the
    geodesic and on hypercycles, over windows up to (-12, 12)."""
    phi = draw(st.sampled_from([math.pi / 2, 0.5, 0.9, 1.1]))
    tr = _transversal(phi)
    b = tr.curvature_bound
    window = draw(st.floats(-12.0, 0.0)), draw(st.floats(0.5, 12.0))
    t = np.linspace(*window, draw(st.integers(2, 300)))
    family = draw(st.sampled_from(["pencil", "reversed", "totally_geodesic", "constant"]))
    if family in ("pencil", "reversed"):
        y = b * t if family == "pencil" else -b * t
        h = -np.tanh(y) if tr.kind == "geodesic" else np.array([profile_inverse(phi, v) for v in y])
    elif family == "constant":
        h = np.full(t.size, draw(st.floats(-0.99, 0.99)) * b)
    else:
        h = np.zeros(t.size)
    return Route(tr, t, h)


def _edge_route(phi, h):
    return Route(_transversal(phi), np.arange(len(h), dtype=float), np.array(h), tol=1e-300)


@st.composite
def edge_of_band_routes(draw):
    """Routes with samples one ulp inside the bound, or just past it within
    the band, under a tolerance of 1e-300: they stay interior, and where
    the profile rounds them to an infinity the column bounds read nan or
    -inf."""
    phi = draw(st.sampled_from([math.pi / 2, 0.5, 0.9, 1.1]))
    tr = _transversal(phi)
    b = tr.curvature_bound
    pool = [
        float(np.nextafter(-b, 0.0)),
        float(np.nextafter(b, 0.0)),
        b + 1e-13,
        -0.5 * b,
        0.0,
        0.5 * b,
    ]
    h = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=12))
    return _edge_route(phi, h)


class _CountingArgmin(np.ndarray):
    """An array whose ``argmin`` calls are counted, as are those of the
    arrays computed from it."""

    calls = 0

    def argmin(self, *args, **kwargs):
        _CountingArgmin.calls += 1
        return super().argmin(*args, **kwargs)


class TestPairScanWork:
    """The pair scan recomputes only what the verdict prints, and prints
    what the pairwise definition does."""

    @given(tied_routes())
    def test_tied_families_match_pairwise_definition(self, route):
        assert repr(validate_c0(route)) == repr(_reference_validate_c0(route))

    # At phi = 0.5 the profile is +inf one ulp inside -bound and -inf just
    # past +bound.  In the first two every two-sided bound is +inf, with an
    # infinite guard; in the third a bound of each kind reads -inf.
    @example(_edge_route(0.5, [0.0, float(np.nextafter(-math.sin(0.5), 0.0))]))
    @example(_edge_route(0.5, [math.sin(0.5) + 1e-13, 0.0]))
    @example(_edge_route(0.5, [0.0, float(np.nextafter(-math.sin(0.5), 0.0)), 0.0]))
    @given(edge_of_band_routes())
    def test_non_finite_bounds_match_pairwise_definition(self, route):
        # A profile value of +-inf makes inf - inf in both scans, and both
        # skip those nan pairs one by one, the two-sided note included.
        with np.errstate(invalid="ignore"):
            assert repr(validate_c0(route)) == repr(_reference_validate_c0(route))

    def test_infinite_profile_prints_the_two_sided_note(self):
        # An infinite F makes the guard infinite, so every two-sided column
        # is searched, its inf - inf pairs skipped: pair (1, 2) of each
        # route has a two-sided slack of -inf, which the note prints.
        inside = float(np.nextafter(-math.sin(0.5), 0.0))
        below = float(np.nextafter(math.sin(0.5), 0.0))
        for h in ([0.0, inside, 0.0], [below, inside, 0, 0, 0, inside, inside]):
            with np.errstate(invalid="ignore"):
                notes = validate_c0(_edge_route(0.5, h)).notes
            assert notes[2:] == (
                "two-sided Lipschitz estimate fails by inf at pair (1.0, 2.0); "
                "this does not affect validity",
            )

    def _scan(self, route, monkeypatch):
        """``_pair_scan`` on the route's columns, with the columns that
        search the two-sided minimum (argmin) and those that list
        violations (flatnonzero, once more to pick the columns) counted."""
        listed = []
        flatnonzero = np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero", lambda a: listed.append(1) or flatnonzero(a))
        _CountingArgmin.calls = 0
        tt = route.t.view(_CountingArgmin)
        ff = lipschitz_profile(_effective_phi(route.transversal), route.h).view(_CountingArgmin)
        scan = _pair_scan(tt, ff, route.transversal.curvature_bound, route.tol)
        monkeypatch.undo()
        return scan, _CountingArgmin.calls, len(listed) - 1

    def test_holding_pencil_recomputes_no_column_for_the_notes(self, monkeypatch):
        t = np.linspace(-3, 3, 2000)
        route = geodesic_route(t, -np.tanh(t))
        (pairs, _, two_sided, at), searched, listed = self._scan(route, monkeypatch)
        assert (pairs, two_sided, at) == ([], None, None)
        assert (searched, listed) == (0, 0)
        assert "two-sided Lipschitz estimate also holds on this window" in validate_c0(route).notes

    def test_failing_estimate_still_searches_its_columns(self, monkeypatch):
        t = np.linspace(-2, 2, 41)
        route = geodesic_route(t, np.tanh(2 * t))
        (_, _, two_sided, at), searched, _ = self._scan(route, monkeypatch)
        assert two_sided < -route.tol and at is not None
        assert searched > 0

    def test_violating_columns_are_listed(self, monkeypatch):
        t = np.linspace(-1, 1, 21)
        route = geodesic_route(t, -np.tanh(2 * t))
        (pairs, *_), _, listed = self._scan(route, monkeypatch)
        assert pairs and listed > 0


@st.composite
def pinned_routes(draw):
    """Routes whose levels sit at the pins, within the tolerance of them or
    just past them, anywhere in the route: legal leading and trailing runs
    and misplaced pins (zone violations) alike."""
    phi = draw(st.sampled_from([math.pi / 2, 0.5, 0.9, 1.1]))
    tr = _transversal(phi)
    b = tr.curvature_bound
    pool = [-b, b, -b + 5e-10, b - 5e-10, b + 5e-10, b + 2e-9, -0.5 * b, 0.0, 0.5 * b]
    h = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
    return Route(tr, np.linspace(-2.0, 2.0, len(h)), np.array(h))


@st.composite
def drawn_routes(draw):
    """``random_valid_route`` and ``perturbed_invalid_route`` draws on the
    geodesic and on hypercycles, on windows shifted in t."""
    tr = _transversal(draw(st.sampled_from([math.pi / 2, 0.5, 0.9, 1.1])))
    shift = draw(st.sampled_from([-40.0, 0.0, 40.0]))
    kwargs = dict(
        window=(shift - 2.0, shift + 2.0),
        n=draw(st.integers(12, 241)),
        seed=draw(st.integers(0, 2**16)),
    )
    if draw(st.booleans()):
        return random_valid_route(tr, **kwargs)
    return perturbed_invalid_route(tr, **kwargs)[0]


@st.composite
def horocycle_routes(draw):
    """Horocycle routes whose levels are 0, within the tolerance of it, or
    off it."""
    pool = [0.0, 5e-10, -5e-10, 2e-9, -0.3, -1.0, 0.5]
    h = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    tr = Transversal.horocycle(draw(st.sampled_from([1e-3, 1.0, 7.5])))
    return Route(tr, np.linspace(-2.0, 2.0, len(h)), np.array(h))


class TestValidityTest:
    """``_is_valid`` answers as ``validate(route).valid`` does, and
    ``synthesize`` refuses with ``validate``'s verdict."""

    @settings(max_examples=400)
    @example(_edge_route(0.5, [0.0, float(np.nextafter(-math.sin(0.5), 0.0)), 0.0]))
    @given(
        st.one_of(
            c0_routes(),
            tied_routes(),
            edge_of_band_routes(),
            pinned_routes(),
            drawn_routes(),
            horocycle_routes(),
        )
    )
    def test_matches_the_verdict(self, route):
        # _is_valid runs first: after validate it reads the recorded answer.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            valid = _is_valid(route)
            verdict = validate(route)
            assert valid is verdict.valid
            try:
                synthesize(route)
            except InvalidRouteError as exc:
                assert not verdict.valid
                assert repr(exc.verdict) == repr(verdict)
            else:
                assert verdict.valid

    @pytest.mark.parametrize("shift", [-40.0, 40.0])
    @pytest.mark.parametrize("phi", [0.5, 0.9, math.pi / 2])
    def test_a_bound_within_the_guard_proves_nothing(self, phi, shift):
        # Near t = +-40 a column bound g_i - g_j rounds ulps of t away from
        # its pair's slack.  With -tol at the worst pair slack, some bounds
        # lie below -tol, yet no pair does: the route is valid.
        route = _sawtooth(phi, 400, shift)
        tol = -float(_pair_slacks(route).min())
        route = Route(route.transversal, route.t, route.h, tol=tol)
        _, _, tt, ff, bound = validation._c0_inputs(route)
        low = validation._one_sided_bounds(tt, ff, bound, route.tol)[2]
        assert (low < -route.tol).any()
        assert _is_valid(route) and validate(route).valid


class TestSynthesizeWork:
    """``synthesize`` builds a valid route's family without evaluating a
    single pair, where ``validate`` evaluates the tied pairs that can
    hold the worst slack."""

    @pytest.fixture
    def pairs(self, monkeypatch):
        """A list that records how many pairs each evaluation of the pair
        formula covers."""
        seen = []
        evaluate = validation._pairs

        def counted(*args):
            rise, growth = evaluate(*args)
            seen.append(rise.size)
            return rise, growth

        monkeypatch.setattr(validation, "_pairs", counted)
        return seen

    ROUTES = {
        "totally_geodesic": lambda n: builtin_route("totally_geodesic", n=n),
        "totally_geodesic_phi": lambda n: builtin_route(
            "totally_geodesic", Transversal.hypercycle(0.9), n=n
        ),
        "constant": lambda n: builtin_route("constant", Transversal.hypercycle(0.9), n=n, c=0.5),
        "pencil": lambda n: builtin_route("pencil", n=n),
    }

    @pytest.mark.parametrize("n", [1000, 4000, 16000])
    @pytest.mark.parametrize("family", sorted(ROUTES))
    def test_valid_tied_routes_evaluate_no_column(self, family, n, pairs):
        slice_ = synthesize(self.ROUTES[family](n))
        assert slice_.t.size == n
        assert pairs == []

    @pytest.mark.parametrize("family", sorted(ROUTES))
    def test_the_verdict_evaluates_the_tied_pairs(self, family, pairs):
        # What the contract above rules out: validate evaluates at least
        # the n - 1 neighbour pairs of a tied grid for the worst slack,
        # so a synthesize that called it fails.
        assert validate(self.ROUTES[family](1000)).valid
        assert sum(pairs) >= 999

    @pytest.mark.parametrize("n", [1000, 4000, 16000])
    @pytest.mark.parametrize("family", ["totally_geodesic", "totally_geodesic_phi", "constant"])
    def test_the_verdict_evaluates_linear_pairs_on_monotone_grids(self, family, n, pairs):
        # g = F - L t strictly decreases, so only each column's neighbour
        # ties the worst slack: n - 1 pairs, not the n^2 / 2 of the ties.
        assert validate(self.ROUTES[family](n)).valid
        assert sum(pairs) < 2 * n

    def test_an_invalid_route_stops_at_its_first_failing_column(self, pairs):
        # Ten columns within the rounding guard of -tol, few enough for the
        # column loop, and no bound proves one invalid.  The first column's
        # pair fails, so the loop evaluates that column and stops.
        route = _sawtooth(0.9, 21, 0.0)
        s = float(_pair_slacks(route)[0])  # the pair (0, 1)
        route = Route(route.transversal, route.t, route.h, tol=-s - math.ulp(s))
        _, _, tt, ff, bound = validation._c0_inputs(route)
        guard, _, low, fail = validation._one_sided_bounds(tt, ff, bound, route.tol)
        assert fail[0] and np.count_nonzero(fail) == 10 <= 3 * fail.size.bit_length()
        assert not (low < -route.tol - guard).any()
        assert not _is_valid(route)
        assert pairs == [1]

    def test_an_invalid_route_evaluates_its_candidates_once(self, pairs):
        # A violation within the rounding guard of -tol, which no bound
        # proves, in one of 120 such columns: too many for the loop, so
        # _is_valid evaluates their candidate pairs in one call.
        route = _sawtooth(0.9, 241, 0.0)
        s = float(_pair_slacks(route).min())
        route = Route(route.transversal, route.t, route.h, tol=-s - math.ulp(s))
        assert not _is_valid(route)
        assert len(pairs) == 1

    STEEP = {
        "tanh": lambda n: geodesic_route(
            np.linspace(-1.0, 1.0, n), -np.tanh(2 * np.linspace(-1.0, 1.0, n))
        ),
        "phi=0.9": lambda n: _steep_burst(0.9, n, 100, seed=1),
    }

    @pytest.mark.parametrize("n", [1000, 4000])
    @pytest.mark.parametrize("steep", sorted(STEEP))
    def test_a_bound_past_the_guard_refuses_with_no_pair(self, steep, n, pairs):
        # A column bound below -tol by more than the rounding guard proves
        # a violation, so _is_valid evaluates no pair.
        assert not _is_valid(self.STEEP[steep](n))
        assert pairs == []

    @pytest.mark.parametrize("steep", sorted(STEEP))
    def test_synthesize_searches_an_invalid_route_once(self, steep, pairs):
        # The pairs validate evaluates for the verdict, and no more.
        route = self.STEEP[steep](300)
        verdict = validate(route)
        searched = sum(pairs)
        with pytest.raises(InvalidRouteError) as refused:
            synthesize(route)
        assert repr(refused.value.verdict) == repr(verdict)
        assert sum(pairs) == 2 * searched > 0


class TestRecordedVerdict:
    """A route is judged once: ``validate_c0`` and ``validate_horocycle``
    record whether it is valid, and ``_is_valid``, so ``synthesize``,
    answers from that record."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """A counter of the calls to the validity search's inputs and pair
        formula, and to ``validate_horocycle``."""
        called = []
        for name in ("_c0_inputs", "_pairs", "validate_horocycle"):
            function = getattr(validation, name)
            monkeypatch.setattr(
                validation, name,
                lambda *a, _f=function, _name=name: called.append(_name) or _f(*a),
            )
        return called

    ROUTES = {
        "valid": lambda: random_valid_route(Transversal.hypercycle(0.9), seed=1),
        "tied": lambda: builtin_route("constant", Transversal.hypercycle(0.9), n=1000, c=0.5),
        "pencil": lambda: builtin_route("pencil", n=300),
        "invalid": lambda: perturbed_invalid_route(Transversal.geodesic(), seed=3)[0],
    }

    @pytest.mark.parametrize("name", sorted(ROUTES))
    def test_synthesize_after_validate_c0_checks_nothing(self, name, calls):
        route = self.ROUTES[name]()
        verdict = validate_c0(route)
        calls.clear()
        assert _is_valid(route) is verdict.valid
        synthesize(route, force=not verdict.valid)
        assert calls == []

    def test_synthesize_after_validate_horocycle_checks_nothing(self, calls):
        route = Route(Transversal.horocycle(1.0), [0.0, 1.0, 2.0], [0.0, 5e-10, 0.0])
        assert validate_horocycle(route).valid
        calls.clear()
        synthesize(route)
        assert calls == []

    def test_is_valid_records_its_answer(self, calls):
        route = self.ROUTES["tied"]()
        assert _is_valid(route)
        assert calls.count("_c0_inputs") == 1
        assert _is_valid(route) and synthesize(route).t.size == route.n
        assert calls.count("_c0_inputs") == 1

    def test_validate_c1_records_nothing(self):
        # Valid by its supplied derivative track, invalid by its pairs.
        t = np.linspace(-1.0, 1.0, 41)
        route = geodesic_route(t, -np.tanh(3 * t), dh=np.zeros(41))
        assert validate_c1(route).valid
        assert not _is_valid(route)
        with pytest.raises(InvalidRouteError):
            synthesize(route)

    def test_a_replaced_tolerance_is_judged_afresh(self):
        # The worst slack is -5e-10: valid at tol 1e-9, invalid at 1e-10.
        loose = geodesic_route([0.0, 1.0], [0.0, -math.tanh(1 + 5e-10)])
        assert validate_c0(loose).valid
        tight = replace(loose, tol=1e-10)
        assert not _is_valid(tight)
        with pytest.raises(InvalidRouteError):
            synthesize(tight)
        assert not validate_c0(tight).valid
        assert _is_valid(replace(tight, tol=1e-9))
        assert _is_valid(loose) and not _is_valid(tight)


def _steep_burst(phi, n, m, seed):
    """A route drawn in profile coordinates on (-4, 4), slopes in
    (-0.8 L, L), with m over-steep steps (slope L + 0.5) from sample
    n // 2: every pair inside the run violates, m (m + 1) / 2 of them."""
    tr = _transversal(phi)
    L = tr.curvature_bound
    rng = np.random.default_rng(seed)
    t = np.linspace(-4.0, 4.0, n)
    slopes = rng.uniform(-0.8 * L, L - 1e-3, n - 1)
    slopes[n // 2 : n // 2 + m] = L + 0.5
    y = np.concatenate(([0.0], np.cumsum(slopes * np.diff(t))))
    return Route(tr, t, np.array([profile_inverse(phi, v) for v in y]))


def _sawtooth(phi, n, shift, jump=0.0):
    """Levels on (-1, 1) whose g = F - L t steps down by 1 / n every
    second sample and up by half that in between: each odd column holds
    one pair near the slack -1 / 2n, with its left neighbour, and its
    other pairs clear it by 1 / 2n or more.  A ``jump`` raises the last
    level by that much, so every pair of the last column has a slack near
    -jump."""
    tr = _transversal(phi)
    k = np.arange(n)
    t = np.linspace(-1.0, 1.0, n)
    y = (k % 2 / 2 - k // 2) / n + tr.curvature_bound * t
    y[-1] += jump
    return Route(tr, t + shift, np.array([profile_inverse(phi, v) for v in y]))


class TestCandidatePairs:
    """Where many columns tie or fail, the pair scan evaluates only their
    candidate pairs, and still prints what the pairwise definition does;
    ``_is_valid`` answers as the verdict does."""

    @staticmethod
    def _check(route):
        verdict = validate_c0(route)
        assert repr(verdict) == repr(_reference_validate_c0(route))
        # validate_c0 has recorded its answer: check _is_valid's search itself.
        assert _judge(route) is verdict.valid
        return verdict

    @pytest.mark.parametrize("window", [(-3, 10), (-9, 9), (-12, 12), (-30, 30)])
    def test_wide_pencils(self, window):
        t = np.linspace(*window, 1000)
        self._check(geodesic_route(t, -np.tanh(t)))

    @pytest.mark.parametrize("phi", [0.9, math.pi / 2])
    @pytest.mark.parametrize("m", [30, 100])
    def test_steep_bursts(self, phi, m):
        verdict = self._check(_steep_burst(phi, 1000, m, seed=m))
        assert len(verdict.violations) >= m * (m + 1) // 2

    @pytest.mark.parametrize("window", [(-3.0, 3.0), (-30.0, -25.0)])
    @pytest.mark.parametrize("phi", [0.9, math.pi / 2])
    @pytest.mark.parametrize("name, c", [("totally_geodesic", None), ("constant", 0.5), ("constant", -0.7)])
    def test_monotone_grids(self, name, c, phi, window):
        tr = _transversal(phi)
        c = None if c is None else c * tr.curvature_bound
        assert self._check(builtin_route(name, tr, window, n=2000, c=c)).valid

    @settings(max_examples=100)
    @given(drawn_routes())
    def test_drawn_routes(self, route):
        self._check(route)

    @settings(max_examples=150)
    @given(
        st.sampled_from([0.5, 0.9, math.pi / 2]),
        st.integers(150, 400),
        st.integers(30, 75),
        st.integers(0, 2**16),
        st.data(),
    )
    def test_tolerance_at_a_slack(self, phi, n, m, seed, data):
        # A tolerance within a few ulps of one pair's slack: the pairs
        # on either side of -tol differ from g_i - g_j by rounding only,
        # which the candidates' thresholds must cover.  The m failing
        # columns outnumber the loop's share, three a level.
        route = _steep_burst(phi, n, m, seed)
        slacks = _pair_slacks(route)
        negative = np.unique(slacks[(slacks < 0) & (slacks > -route.transversal.curvature_bound)])
        s = float(data.draw(st.sampled_from(negative.tolist())))
        tol = -s + data.draw(st.integers(-4, 4)) * math.ulp(s)
        self._check(Route(route.transversal, route.t, route.h, tol=tol))

    @settings(max_examples=150)
    @given(
        st.sampled_from([0.5, 0.9, math.pi / 2]),
        st.integers(40, 400),
        st.sampled_from([-40.0, 0.0, 40.0]),
        st.integers(-1, 1),
    )
    def test_tolerance_at_a_neighbour_slack(self, phi, n, shift, ulps):
        # Half the columns can fail, one candidate each, so ``_is_valid``
        # finds the one pair below -tol (ulps = -1) among the candidates
        # unless the failing columns are few enough for the column loop.
        route = _sawtooth(phi, n, shift)
        s = float(_pair_slacks(route).min())
        tol = -s + ulps * math.ulp(s)
        assert self._check(Route(route.transversal, route.t, route.h, tol=tol)).valid is (ulps >= 0)

    @pytest.mark.parametrize("shift", [-40.0, 0.0, 40.0])
    @pytest.mark.parametrize("phi", [0.5, 0.9, math.pi / 2])
    def test_tolerance_amid_a_deep_violation(self, phi, shift):
        # The last column's slacks lie far below -tol, so the candidates'
        # threshold is guard - tol, not the worst bound's.  -tol is the
        # median of the neighbour slacks, which differ from their
        # g_i - g_j by rounding, so some violate by less than that.
        n = 600
        route = _sawtooth(phi, n, shift, jump=1.0)
        slacks = _pair_slacks(route)
        near = slacks[(slacks > -0.75 / n) & (slacks < -0.25 / n)]
        tol = -float(np.median(near))
        verdict = self._check(Route(route.transversal, route.t, route.h, tol=tol))
        assert 0 < np.count_nonzero(near < -tol) < near.size
        assert len(verdict.violations) == np.count_nonzero(slacks < -tol)


def _full_precision_routes():
    """The routes whose verdicts ``TestFullPrecision`` pins: drawn valid and
    perturbed routes on four transversals, valid draws on a wide window,
    the closed forms on widening windows, and routes with an infinite F,
    the last valid with a nan pair slack (inf - inf)."""
    for phi in (math.pi / 2, 0.5, 0.9, 1.1):
        tr = _transversal(phi)
        for n in (12, 61, 241, 1000):
            for seed in range(4):
                yield random_valid_route(tr, n=n, seed=seed)
                yield perturbed_invalid_route(tr, n=n, seed=seed)[0]
        for n in (241, 1000):
            for seed in range(2):
                yield random_valid_route(tr, (-30.0, 30.0), n=n, seed=seed)
    for a in (3.0, 8.0, 12.0, 30.0):
        for name, tr, c in (
            ("pencil", Transversal.geodesic(), None),
            ("horospherical", Transversal.geodesic(), None),
            ("totally_geodesic", Transversal.hypercycle(0.9), None),
            ("constant", Transversal.hypercycle(0.9), 0.5),
        ):
            yield builtin_route(name, tr, (-a, a), n=1000, c=c)
    inside = float(np.nextafter(-math.sin(0.5), 0.0))
    below = float(np.nextafter(math.sin(0.5), 0.0))
    for h in ([0.0, inside, 0.0], [below, inside, 0, 0, 0, inside, inside], [inside, inside, 0.0]):
        yield _edge_route(0.5, h)


class TestFullPrecision:
    """The verdicts and validity answers of a fixed set of routes, pinned
    by one digest of their ``repr``: every float at full precision, which
    the golden digests' 12 significant digits cannot see.  It reads the
    last bits of numpy's and the C library's float functions, so another
    platform may need the digest computed again on an unchanged tree."""

    DIGEST = "87139260529ed60865b2164fcf2aa5e7a559220a3b2f6ab20d17cd94dbd76579"

    def test_verdicts_are_unchanged(self):
        texts = []
        with np.errstate(invalid="ignore"):  # an infinite F makes inf - inf
            for route in _full_precision_routes():
                texts.append(f"{validate(route)!r} {_judge(route)}\n")
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert digest == self.DIGEST


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


class TestAdmissibleBand:
    """The rate bound and the hypercycle leaf accept the same levels: the
    band |h| <= sin phi, up to its one tolerance."""

    @pytest.mark.parametrize("phi", [0.3, 0.9, 1.4])
    @pytest.mark.parametrize("beyond", [0.0, 0.5e-12, 2e-12])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_rate_and_leaf_agree_at_the_band_edge(self, phi, beyond, sign):
        h = sign * (math.sin(phi) + beyond)
        admissible = beyond < 1e-12
        for check in (
            lambda: min_curvature_rate(phi, h),
            lambda: leaf_orthogonal_to_hypercycle(phi, 1.0, math.acos(-h)),
        ):
            if admissible:
                check()
            else:
                with pytest.raises(DomainError):
                    check()
