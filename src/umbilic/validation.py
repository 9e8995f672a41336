"""Route validation.

A route is a sampled curvature course ``t -> h(t)`` along a canonical
transversal.  It is realizable by a pairwise disjoint leaf family exactly
when the transformed course ``F(h(t))`` grows no faster than the
transversal's rate bound, one-sidedly: for every pair t1 < t2,

    F(h(t2)) - F(h(t1)) <= L (t2 - t1),       L = sin(phi),

with L = 1 on the geodesic (phi = pi/2 throughout this module means the
geodesic case; every formula specializes continuously).  The condition is
deliberately one-sided; the two-sided Lipschitz estimate is stricter than
disjointness requires, and validators only mention it in their notes.

Samples pinned at the curvature bound (|h| = L) sit at the profile's
infinities and are handled by zone structure instead: a route may open
with a run of ``h = -L`` (tangent leaves) and close with a run of
``h = +L`` (line leaves), but pinned samples anywhere else are violations.

Validation is windowed: only sampled pairs are checked, and every verdict
carries a note that behavior outside the window is unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .halfplane import Transversal, TransversalKind

DEFAULT_TOL = 1e-9

_PIN_EPS = 1e-15  # |h| within this of the bound counts as exactly pinned
_WINDOW_NOTE = "window only: behavior outside the sampled interval is unchecked"


def lipschitz_profile(phi: float, h):
    """The strictly decreasing profile transform F(phi, .).

    F(phi, h) = ln[ (sin phi - h) / (h cos phi + sqrt(1 - h^2) sin phi) ]
    on |h| < sin phi, with F(pi/2, h) = -ath(h).  Arguments at or beyond
    the bound return the divergence signal: +inf at the lower end, -inf
    at the upper end, as does a level so close to the lower end that the
    denominator rounds to 0 or below.  ``h`` may be a float or an array;
    the result has the same shape.
    """
    b = _check_phi(phi)
    hc = np.clip(h, -b, b)
    den = hc * math.cos(phi) + np.sqrt(1.0 - hc * hc) * b
    with np.errstate(divide="ignore"):
        f = np.log((b - hc) / np.where(den > 0.0, den, 0.0))
    f = np.where(hc >= b, -math.inf, np.where(hc <= -b, math.inf, f))
    return f if np.ndim(h) else float(f)


def profile_inverse(phi: float, y: float) -> float:
    """Solve F(phi, h) = y for h in closed form.

    With h = -cos(beta), F = y reads -R cos(beta + delta) = sin(phi),
    where R e^{i delta} = 1 + e^{y + i phi}; so beta = arccos(-sin(phi) / R)
    - delta.  For y > 0 the factor e^y is divided out of 1 + e^{y + i phi},
    so only e^{-|y|} is ever formed and no finite y overflows.  The result
    is clipped to the band [-sin phi, sin phi].
    """
    b = _check_phi(phi)
    if phi == math.pi / 2:
        return -math.tanh(y)
    if math.isinf(y):
        return -b if y > 0 else b
    e = math.exp(-abs(y))
    if y > 0:
        re, im, num = e + math.cos(phi), b, e * b
    else:
        re, im, num = 1.0 + e * math.cos(phi), e * b, b
    beta = math.acos(-num / math.hypot(re, im)) - math.atan2(im, re)
    return min(max(-math.cos(beta), -b), b)


def min_curvature_rate(phi: float, h):
    """Lower bound on dh/dt for a differentiable valid route at level h.

    Equals sin(phi) / F'(h), written in closed form:

        (h - sin phi)(h cos phi + sqrt(1-h^2) sin phi) sqrt(1-h^2)
        ----------------------------------------------------------
              1 - h sin phi + sqrt(1-h^2) cos phi

    Nonpositive on the admissible band, zero exactly at |h| = sin phi,
    and equal to h^2 - 1 at phi = pi/2.  ``h`` may be a float or an
    array; the result has the same shape.
    """
    b = _check_phi(phi)
    worst = float(np.max(np.abs(h)))
    if worst > b + 1e-12:
        raise DomainError(f"|h| must not exceed sin(phi)={b!r}, got |h|={worst!r}")
    hc = np.clip(h, -b, b)
    root = np.sqrt(1.0 - hc * hc)
    num = (hc - b) * (hc * math.cos(phi) + root * b) * root
    den = 1.0 - hc * b + root * math.cos(phi)
    # den reaches 0 only at the upper pin of the geodesic, where the rate is 0.
    rate = np.where(b - np.abs(hc) <= _PIN_EPS, 0.0, num / np.maximum(den, 1e-300))
    return rate if np.ndim(h) else float(rate)


def _check_phi(phi: float) -> float:
    if not 0.0 < phi <= math.pi / 2:
        raise DomainError(f"transversal angle must lie in (0, pi/2], got {phi!r}")
    return math.sin(phi)


@dataclass(frozen=True)
class Route:
    """Sampled curvature course along a transversal.

    ``t`` must be strictly increasing; ``h`` has matching length, as does
    the optional derivative track ``dh``; neither may hold nan.  Curvature
    bound violations are reported by the validators rather than rejected
    here, so diagnostic routes stay representable.
    """

    transversal: Transversal
    t: np.ndarray
    h: np.ndarray
    dh: np.ndarray | None = None
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        h = np.asarray(self.h, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise DomainError("t must be a nonempty 1-d array")
        if h.shape != t.shape:
            raise DomainError(f"h has shape {h.shape}, expected {t.shape}")
        if not np.all(np.diff(t) > 0):
            raise DomainError("t must be strictly increasing")
        if np.isnan(h).any():
            raise DomainError("h must not contain nan")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "h", h)
        if self.dh is not None:
            dh = np.asarray(self.dh, dtype=float)
            if dh.shape != t.shape:
                raise DomainError(f"dh has shape {dh.shape}, expected {t.shape}")
            if np.isnan(dh).any():
                raise DomainError("dh must not contain nan")
            object.__setattr__(self, "dh", dh)
        if not self.tol > 0:
            raise DomainError(f"tolerance must be positive, got {self.tol!r}")

    @property
    def n(self) -> int:
        return int(self.t.size)

    @property
    def window(self) -> tuple[float, float]:
        return float(self.t[0]), float(self.t[-1])


@dataclass(frozen=True)
class Zones:
    """Pinned-run boundaries: the route may sit at h = -bound up to
    ``t_minus`` and at h = +bound from ``t_plus`` on (-inf / +inf when
    the corresponding run is absent)."""

    t_minus: float
    t_plus: float


@dataclass(frozen=True)
class Violation:
    """One broken inequality.

    ``kind`` is ``bound`` (|h| beyond the curvature bound), ``zone``
    (pinned sample outside the allowed leading/trailing runs), ``pair``
    (one-sided growth between t1 and t2), or ``pointwise`` (derivative
    below the rate bound at t1).  Pair and zone violations carry both
    times; the rest leave t2 as nan.
    """

    kind: str
    t1: float
    t2: float
    slack: float


@dataclass(frozen=True)
class Verdict:
    valid: bool
    zones: Zones
    worst_slack: float
    violations: tuple[Violation, ...]
    notes: tuple[str, ...]
    mode: str


def _classify_samples(h: np.ndarray, bound: float, tol: float):
    """Boolean masks (bad, low, high, interior) for the sample levels."""
    bad = np.abs(h) > bound + tol
    low = (~bad) & (np.abs(h + bound) <= tol)
    high = (~bad) & (np.abs(h - bound) <= tol)
    interior = ~(bad | low | high)
    return bad, low, high, interior


def detect_zones(route: Route) -> Zones:
    """The pinned-run boundaries of a route.  Pure bookkeeping: violations
    of the zone pattern are reported by the validators, not here."""
    if route.transversal.kind == TransversalKind.HOROCYCLE:
        return Zones(-math.inf, math.inf)
    return _structure_violations(route, route.transversal.curvature_bound)[2]


def _structure_violations(route: Route, bound: float):
    """Bound and zone-pattern violations shared by both validators.

    Returns (violations, usable, zones) where ``usable`` masks the samples
    that take part in the interior checks and ``zones`` bounds the leading
    run of lows (samples before k0) and the trailing run of highs (samples
    after k1).
    """
    t, h, tol = route.t, route.h, route.tol
    bad, low, high, interior = _classify_samples(h, bound, tol)
    violations = []
    for i in np.flatnonzero(bad):
        violations.append(
            Violation("bound", float(t[i]), math.nan, bound - abs(float(h[i])))
        )
    # Leading run of lows is legal; any low after the first non-low sample
    # forces an intersection with everything from that sample on.
    not_low = np.flatnonzero(~low)
    k0 = int(not_low[0]) if not_low.size else t.size
    for j in np.flatnonzero(low[k0:]) + k0:
        violations.append(Violation("zone", float(t[k0]), float(t[j]), -math.inf))
    # Mirror image for the trailing run of highs.
    not_high = np.flatnonzero(~high)
    k1 = int(not_high[-1]) if not_high.size else -1
    for i in np.flatnonzero(high[: max(k1, 0)]):
        violations.append(Violation("zone", float(t[i]), float(t[k1]), -math.inf))
    zones = Zones(
        float(t[k0 - 1]) if k0 > 0 else -math.inf,
        float(t[k1 + 1]) if k1 < t.size - 1 else math.inf,
    )
    return violations, interior, zones


def _effective_phi(transversal: Transversal) -> float:
    """The angle phi of the profile transform: pi/2 on the geodesic."""
    if transversal.kind == TransversalKind.HOROCYCLE:
        raise DomainError("horizontal transversals are handled by validate_horocycle")
    if transversal.kind == TransversalKind.GEODESIC:
        return math.pi / 2
    return transversal.phi


def validate_c0(route: Route) -> Verdict:
    """Sampled one-sided growth check over every interior pair.

    The slack of a pair (t1, t2) is ``L (t2 - t1) - (F(h(t2)) - F(h(t1)))``;
    the route is valid when no slack drops below -tol and the pinned
    samples follow the leading/trailing zone pattern.

    Runs in O(n + recomputed columns), see ``_pair_scan``: O(n) for
    generic routes, O(n^2) only when the pairs of every column tie within
    rounding (the extremal families on uniform grids).  The verdict is
    bit-identical to evaluating every pair by the formula above.
    """
    phi_eff = _effective_phi(route.transversal)
    bound = route.transversal.curvature_bound
    violations, interior, zones = _structure_violations(route, bound)
    worst = math.inf if not violations else min(v.slack for v in violations)

    tt = route.t[interior]
    ff = lipschitz_profile(phi_eff, route.h[interior])
    pairs, pair_worst, worst_two_sided, two_sided_at = _pair_scan(
        tt, ff, bound, route.tol
    )
    violations.extend(pairs)
    worst = min(worst, pair_worst)

    notes = [_WINDOW_NOTE, "one-sided growth condition is the normative check"]
    if worst_two_sided < -route.tol:
        notes.append(
            "two-sided Lipschitz estimate fails by "
            f"{-worst_two_sided:.6g} at pair {two_sided_at}; this does not "
            "affect validity"
        )
    elif math.isfinite(worst_two_sided):
        notes.append("two-sided Lipschitz estimate also holds on this window")
    return _verdict("c0", zones, worst, violations, notes)


def _verdict(mode: str, zones: Zones, worst: float, violations: list, notes) -> Verdict:
    """The validators' shared tail: violations in (t1, t2) order, with a
    missing t2 sorting as t1, and valid when there are none."""
    violations.sort(key=lambda v: (v.t1, v.t2 if not math.isnan(v.t2) else v.t1))
    return Verdict(
        valid=not violations,
        zones=zones,
        worst_slack=worst,
        violations=tuple(violations),
        notes=tuple(notes),
        mode=mode,
    )


def _pair_scan(tt: np.ndarray, ff: np.ndarray, L: float, tol: float):
    """The pair checks of ``validate_c0`` by prefix scans.

    Returns the pair violations in (t1, t2) order, the worst pair slack,
    the worst two-sided slack ``L (t2 - t1) + (F2 - F1)``, and the first
    pair in (t1, t2) order that attains it (``inf`` and ``None`` when
    there are no pairs).

    The slack of pair (i, j) is g_i - g_j with g = F - L t, up to
    rounding, so a running minimum of g bounds every column j from below
    in O(n); a running maximum of w = F + L t does the same for the
    two-sided slack.  The two ways of rounding differ by at most
    eps (6A + 4B) with A = L max|t| and B = max|F| (plus underflow,
    which ``tiny`` covers), well inside ``guard``.  Only the columns
    whose bound comes within the guard of -tol, or within twice the
    guard of the best column, can hold a violation or the minimum; those
    are recomputed with the pairwise formula, so every float matches
    evaluating all n^2 / 2 pairs.
    """
    if tt.size < 2:
        return [], math.inf, math.inf, None
    g = ff - L * tt
    w = ff + L * tt
    scale = L * np.abs(tt).max() + np.abs(ff).max()
    guard = 16 * np.finfo(float).eps * scale + np.finfo(float).tiny
    low = np.minimum.accumulate(g)[:-1] - g[1:]
    low2 = w[1:] - np.maximum.accumulate(w)[:-1]

    # ~(low >= ...) keeps a column whose bound is nan, which only a nan F makes.
    one = ~(low >= guard - tol) | (low <= low.min() + 2 * guard)
    two = low2 <= low2.min() + 2 * guard
    worst = math.inf
    best = (math.inf, 0, 0)
    rows, cols, slacks = [], [], []
    for j in np.flatnonzero(one | two) + 1:
        rise = L * (tt[j] - tt[:j])
        df = ff[j] - ff[:j]
        if one[j - 1]:
            slack = rise - df
            worst = min(worst, float(slack.min()))
            i = np.flatnonzero(slack < -tol)
            rows.append(i)
            cols.append(np.full(i.size, j))
            slacks.append(slack[i])
        if two[j - 1]:
            other = rise + df
            i = int(other.argmin())
            best = min(best, (float(other[i]), i, int(j)))
    i, j, s = (np.concatenate(x) for x in (rows, cols, slacks))
    order = np.lexsort((j, i))
    violations = [
        Violation("pair", t1, t2, slack)
        for t1, t2, slack in zip(
            tt[i[order]].tolist(), tt[j[order]].tolist(), s[order].tolist()
        )
    ]
    worst_two_sided, i, j = best
    return violations, worst, worst_two_sided, (float(tt[i]), float(tt[j]))


def validate_c1(route: Route) -> Verdict:
    """Pointwise derivative check: dh/dt >= min_curvature_rate(phi, h) - tol
    at every sample off the pins.

    Uses the supplied derivative track when present, otherwise central
    differences (one-sided at the ends).
    """
    phi_eff = _effective_phi(route.transversal)
    bound = route.transversal.curvature_bound
    tol = route.tol
    violations, _, zones = _structure_violations(route, bound)
    worst = math.inf if not violations else min(v.slack for v in violations)

    if route.dh is not None:
        hp = route.dh
        source = "supplied derivative track"
    elif route.n >= 2:
        hp = np.gradient(route.h, route.t)
        source = "central finite differences"
    else:
        hp = np.zeros(1)
        source = "single sample, derivative taken as 0"

    rhs = min_curvature_rate(phi_eff, np.clip(route.h, -bound, bound))
    ok = ~(np.abs(route.h) > bound + tol)
    slack = hp - rhs
    for i in np.flatnonzero(ok & (slack < -tol)):
        violations.append(
            Violation("pointwise", float(route.t[i]), math.nan, float(slack[i]))
        )
    if np.any(ok):
        worst = min(worst, float(slack[ok].min()))
    notes = (_WINDOW_NOTE, f"derivatives: {source}")
    return _verdict("c1", zones, worst, violations, notes)


def validate(route: Route, c1: bool = False) -> Verdict:
    """The validator for the route's transversal: ``validate_horocycle``
    over a horocycle, otherwise ``validate_c1`` if ``c1`` is set and
    ``validate_c0`` if not."""
    if route.transversal.kind == TransversalKind.HOROCYCLE:
        return validate_horocycle(route)
    return validate_c1(route) if c1 else validate_c0(route)


def validate_horocycle(route: Route) -> Verdict:
    """Along a horizontal transversal the only realizable course is h = 0;
    the slack at each sample is -|h(t)|."""
    if route.transversal.kind != TransversalKind.HOROCYCLE:
        raise DomainError("validate_horocycle requires a horocycle transversal")
    slack = -np.abs(route.h)
    violations = [
        Violation("pointwise", float(route.t[i]), math.nan, float(slack[i]))
        for i in np.flatnonzero(slack < -route.tol)
    ]
    notes = (
        _WINDOW_NOTE,
        "only the zero course is realizable over a horizontal transversal",
    )
    zones = Zones(-math.inf, math.inf)
    return _verdict("horocycle", zones, float(slack.min()), violations, notes)
