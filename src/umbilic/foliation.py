"""Building, extending, and auditing leaf families from validated routes."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InvalidRouteError
from .halfplane import Transversal, TransversalKind
from .leaves import (
    Circle,
    Leaf,
    Line,
    _geodesic_slack,
    _hypercycle_slack,
    carrier_contact,
    leaf_orthogonal_to_geodesic,
    leaf_orthogonal_to_hypercycle,
)
from .validation import Route, _effective_phi, profile_inverse, validate


@dataclass(frozen=True)
class PairContact:
    """A leaf pair flagged by the audit, with one witness point (nan for
    coincident carriers, which share their whole arc)."""

    t1: float
    t2: float
    kind: str
    x: float
    y: float


@dataclass(frozen=True)
class DisjointnessReport:
    clean: bool
    pair_count: int
    intersecting: tuple[PairContact, ...]
    tangent: tuple[PairContact, ...]


@dataclass(frozen=True)
class FoliationSlice:
    """An ordered leaf family over a transversal, one leaf per route sample,
    plus any extension leaves added past the sampled window."""

    transversal: Transversal
    leaves: tuple[tuple[float, Leaf], ...]
    extension_leaves: tuple[tuple[float, Leaf], ...] = ()

    def all_entries(self) -> list[tuple[float, Leaf, bool]]:
        """Every leaf as ``(t, leaf, is_extension)`` in t order, sampled
        leaves first on ties."""
        tagged = [(t, leaf, False) for t, leaf in self.leaves]
        tagged += [(t, leaf, True) for t, leaf in self.extension_leaves]
        tagged.sort(key=lambda e: e[0])
        return tagged


def synthesize(route: Route, force: bool = False) -> FoliationSlice:
    """Turn a route into its leaf family.

    Each sample (t, h) becomes the orthogonal leaf at the transversal
    point for t with boundary angle arccos(-h).  Invalid routes are
    rejected with the verdict attached unless ``force`` is set, in which
    case the (self-intersecting) family is built anyway for diagnostics.
    """
    if not force:
        verdict = validate(route)
        if not verdict.valid:
            raise InvalidRouteError("route failed validation", verdict=verdict)
    kind = route.transversal.kind
    if kind == TransversalKind.HOROCYCLE:
        return FoliationSlice(route.transversal, _horocycle_leaves(route))

    bound = route.transversal.curvature_bound
    if np.any(np.abs(route.h) > bound + route.tol):
        raise DomainError(
            f"curvature beyond the bound {bound!r} is not realizable by any leaf"
        )
    hs = np.clip(route.h, -bound, bound)

    entries = []
    if kind == TransversalKind.GEODESIC:
        for t, h in zip(route.t, hs):
            s = math.exp(t)
            entries.append((float(t), leaf_orthogonal_to_geodesic(s, math.acos(-h))))
    else:
        phi = route.transversal.phi
        for t, h in zip(route.t, hs):
            s = math.exp(t * math.sin(phi))
            entries.append(
                (float(t), leaf_orthogonal_to_hypercycle(phi, s, math.acos(-h)))
            )
    return FoliationSlice(route.transversal, tuple(entries))


def _horocycle_leaves(route: Route) -> tuple[tuple[float, Leaf], ...]:
    height = route.transversal.height
    entries = []
    for t, h in zip(route.t, route.h):
        if abs(h) <= route.tol:
            entries.append((float(t), Leaf(Line(float(t), height, 0.0, 1.0), math.pi / 2)))
        elif -1.0 - route.tol <= h < 0:
            # Orthogonality to a horizontal line puts the center on it.
            hm = min(abs(h), 1.0)
            entries.append(
                (float(t), Leaf(Circle(float(t), height, height / hm), math.acos(hm)))
            )
        elif h < 0:
            raise DomainError(f"no leaf carries mean curvature {h!r}")
        else:
            raise DomainError(
                "no leaf with h > 0 crosses a horizontal transversal orthogonally"
            )
    return tuple(entries)


def verify_disjoint(
    slice_: FoliationSlice,
    boundary_tol: float = 1e-9,
    tangency_tol: float = 1e-9,
) -> DisjointnessReport:
    """Check every leaf pair of the slice by direct carrier intersection.

    This is the audit route: it never consults the closed-form
    disjointness predicates, so its verdicts are independent evidence.
    A report is clean when no pair has a transverse or tangent contact
    above the boundary (ideal tangencies at y <= boundary_tol are fine).
    """
    entries = slice_.all_entries()
    intersecting = []
    tangent = []
    pair_count = 0
    for i in range(len(entries)):
        t1, leaf1, _ = entries[i]
        for j in range(i + 1, len(entries)):
            t2, leaf2, _ = entries[j]
            pair_count += 1
            contact = carrier_contact(leaf1, leaf2, tangency_tol)
            if contact.kind == "coincident":
                intersecting.append(
                    PairContact(t1, t2, "coincident", math.nan, math.nan)
                )
                continue
            upper = [(x, y) for x, y in contact.points if y > boundary_tol]
            if not upper:
                continue
            x, y = upper[0]
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


def extend_slice(
    slice_: FoliationSlice,
    count: int,
    step: float | None = None,
    allow_noop: bool = False,
) -> FoliationSlice:
    """Prolong a hypercycle slice past both ends of its window.

    A valid slice over a hypercycle leaves two wedge-shaped residual
    regions uncovered; scaling the first and last leaves toward 0 and
    infinity fills them with equal-angle copies that stay disjoint from
    the whole family.  ``count`` leaves are added on each side, spaced
    ``step`` apart in the route parameter (default: the median sample
    spacing, or 0.5 for a single leaf).

    An empty slice is a no-op.  Geodesic and horocycle slices have no
    residual region; they raise unless ``allow_noop`` is set, in which
    case they come back unchanged.
    """
    if count < 0:
        raise DomainError(f"extension count must be nonnegative, got {count!r}")
    if count == 0 or not slice_.leaves:
        return slice_
    if slice_.transversal.kind != TransversalKind.HYPERCYCLE:
        if allow_noop:
            return slice_
        raise DomainError(
            "only hypercycle slices leave residual regions to extend into"
        )
    phi = slice_.transversal.phi
    ts = [t for t, _ in slice_.leaves]
    if step is None:
        step = float(np.median(np.diff(ts))) if len(ts) > 1 else 0.5
    if not step > 0:
        raise DomainError(f"extension step must be positive, got {step!r}")

    t_lo, leaf_lo = slice_.leaves[0]
    t_hi, leaf_hi = slice_.leaves[-1]
    added = []
    for k in range(1, count + 1):
        t = t_lo - k * step
        s = math.exp(t * math.sin(phi))
        added.append((t, leaf_orthogonal_to_hypercycle(phi, s, leaf_lo.beta)))
        t = t_hi + k * step
        s = math.exp(t * math.sin(phi))
        added.append((t, leaf_orthogonal_to_hypercycle(phi, s, leaf_hi.beta)))
    added.sort(key=lambda e: e[0])
    return replace(
        slice_, extension_leaves=slice_.extension_leaves + tuple(added)
    )


#: Built-in closed-form families, by name.
BUILTIN_FAMILIES = {
    "totally_geodesic": "h = 0 everywhere; all leaves totally geodesic",
    "horospherical": "h = -1 along the geodesic; leaves tangent at one ideal point",
    "pencil": "h = -tanh t along the geodesic; every leaf ends at -1 and +1",
    "constant": "h = c (pass c); equal-angle leaves in a scaling family",
    "custom_constant_max": "h pinned at +bound; parallel line leaves",
}


def builtin_route(
    name: str,
    transversal: Transversal | None = None,
    window: tuple[float, float] = (-3.0, 3.0),
    n: int = 121,
    c: float | None = None,
    tol: float = 1e-9,
) -> Route:
    """Sample a built-in family on a uniform grid.

    Every built-in satisfies the growth condition exactly; parameter
    combinations that would break that (a constant beyond the bound, the
    horospherical family off the geodesic) are rejected.  The sampled
    pencil is the exception on wide windows: storing h = -tanh t rounds
    its exact zero slack to about -1e-9, so it fails ``validate_c0`` once
    the window reaches |t| ~ 10, and past |t| ~ 10.7 its samples lie
    within the tolerance of h = +-1 and fail both validators as
    misplaced pins.
    """
    if name not in BUILTIN_FAMILIES:
        raise DomainError(
            f"unknown family {name!r}; known: {', '.join(sorted(BUILTIN_FAMILIES))}"
        )
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n!r}")
    if not window[0] < window[1]:
        raise DomainError(f"window must be increasing, got {window!r}")
    tr = transversal if transversal is not None else Transversal.geodesic()
    bound = tr.curvature_bound
    t = np.linspace(window[0], window[1], n)

    if name == "totally_geodesic":
        h = np.zeros(n)
        dh = np.zeros(n)
    elif name == "horospherical":
        if tr.kind != TransversalKind.GEODESIC:
            raise DomainError("the horospherical family lives on the geodesic")
        h = np.full(n, -1.0)
        dh = np.zeros(n)
    elif name == "pencil":
        if tr.kind != TransversalKind.GEODESIC:
            raise DomainError("the pencil family lives on the geodesic")
        h = -np.tanh(t)
        dh = h * h - 1.0
    elif name == "constant":
        if c is None:
            raise DomainError("the constant family needs the level c")
        if abs(c) > bound:
            raise DomainError(
                f"constant level {c!r} exceeds the curvature bound {bound!r}"
            )
        h = np.full(n, float(c))
        dh = np.zeros(n)
    else:  # custom_constant_max
        h = np.full(n, bound)
        dh = np.zeros(n)
    return Route(tr, t, h, dh=dh, tol=tol)


def random_valid_route(
    transversal: Transversal,
    window: tuple[float, float] = (-2.0, 2.0),
    n: int = 61,
    margin: float = 1e-3,
    seed: int = 0,
) -> Route:
    """Draw a route that is valid by construction.

    Works in profile coordinates: integrate slopes capped at L - margin,
    then pull back through the profile inverse.  Any slope distribution
    below the cap gives a valid route; the range used here keeps the
    profile values moderate so no sample lands on a pin by accident.
    """
    phi_eff, L = _effective_phi(transversal), transversal.curvature_bound
    rng = np.random.default_rng(seed)
    t = np.linspace(window[0], window[1], n)
    slopes = rng.uniform(-0.8 * L, L - margin, n - 1)
    g = np.concatenate(([0.0], np.cumsum(slopes * np.diff(t)))) + rng.uniform(-1, 1)
    h = np.array([profile_inverse(phi_eff, y) for y in g])
    return Route(transversal, t, h)


def perturbed_invalid_route(
    transversal: Transversal,
    window: tuple[float, float] = (-2.0, 2.0),
    n: int = 61,
    margin: float = 1e-3,
    seed: int = 0,
    bump: float = 0.5,
) -> tuple[Route, tuple[float, float]]:
    """A valid draw with one burst of over-steep profile growth injected.

    Returns the route and the parameter window of the injected burst; the
    burst pushes local slopes to L + bump, so validation must fail with a
    violating pair inside (or overlapping) that window.
    """
    phi_eff, L = _effective_phi(transversal), transversal.curvature_bound
    rng = np.random.default_rng(seed)
    t = np.linspace(window[0], window[1], n)
    slopes = rng.uniform(-0.8 * L, L - margin, n - 1)
    start = int(rng.integers(n // 4, n // 2))
    length = int(rng.integers(2, 6))
    stop = min(start + length, n - 1)
    slopes[start:stop] = L + bump
    g = np.concatenate(([0.0], np.cumsum(slopes * np.diff(t)))) + rng.uniform(-1, 1)
    h = np.array([profile_inverse(phi_eff, y) for y in g])
    return Route(transversal, t, h), (float(t[start]), float(t[stop]))


@dataclass(frozen=True)
class AgreementStats:
    """Outcome of a predicate-versus-oracle disjointness sweep."""

    family: str
    total: int
    compared: int
    agreements: int
    skipped_margin: int
    skipped_tangent: int
    mismatches: tuple[tuple, ...]


def run_disjointness_agreement(
    family: str,
    n: int = 10000,
    seed: int = 0,
    slack_margin: float = 1e-7,
    tangency_tol: float = 1e-9,
) -> AgreementStats:
    """Compare a closed-form disjointness predicate against the direct
    carrier-intersection oracle on random admissible leaf pairs.

    Tuples whose predicate slack falls inside ``slack_margin`` (too close
    to tangency for float arithmetic to mean anything) and tuples the
    oracle itself flags as tangent are skipped; everything else must
    agree exactly.
    """
    from .leaves import disjoint_along_geodesic, disjoint_along_hypercycle

    if family not in ("geodesic", "hypercycle"):
        raise DomainError(f"family must be geodesic or hypercycle, got {family!r}")
    rng = np.random.default_rng(seed)
    compared = agreements = skipped_margin = skipped_tangent = 0
    mismatches = []
    for _ in range(n):
        s1 = math.exp(rng.uniform(math.log(0.2), math.log(2.0)))
        s2 = s1 * math.exp(rng.uniform(math.log(1.001), math.log(3.0)))
        if family == "geodesic":
            beta1, beta2 = _draw_betas(rng, 0.0, math.pi)
            slack = _geodesic_slack(s1, beta1, s2, beta2)
            predicted = disjoint_along_geodesic(s1, beta1, s2, beta2)
            leaf1 = leaf_orthogonal_to_geodesic(s1, beta1)
            leaf2 = leaf_orthogonal_to_geodesic(s2, beta2)
            params = (s1, beta1, s2, beta2)
        else:
            phi = rng.uniform(0.1, math.pi / 2 - 0.02)
            beta1, beta2 = _draw_betas(
                rng, math.pi / 2 - phi, math.pi / 2 + phi
            )
            slack = _hypercycle_slack(phi, s1, beta1, s2, beta2)
            predicted = disjoint_along_hypercycle(phi, s1, beta1, s2, beta2)
            leaf1 = leaf_orthogonal_to_hypercycle(phi, s1, beta1)
            leaf2 = leaf_orthogonal_to_hypercycle(phi, s2, beta2)
            params = (phi, s1, beta1, s2, beta2)
        if math.isfinite(slack) and abs(slack) < slack_margin:
            skipped_margin += 1
            continue
        contact = carrier_contact(leaf1, leaf2, tangency_tol)
        if contact.kind == "tangent":
            skipped_tangent += 1
            continue
        if contact.kind == "coincident":
            observed = True
        else:
            observed = any(y > 1e-9 for _, y in contact.points)
        compared += 1
        if predicted == (not observed):
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


def _draw_betas(rng, lo: float, hi: float) -> tuple[float, float]:
    betas = []
    for _ in range(2):
        r = rng.uniform()
        if r < 0.04:
            betas.append(lo)
        elif r < 0.08:
            betas.append(hi)
        else:
            betas.append(rng.uniform(lo + 0.02, hi - 0.02))
    return betas[0], betas[1]
