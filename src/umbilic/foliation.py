"""Building, extending, and auditing leaf families from validated routes."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import DomainError, InvalidRouteError
from .halfplane import Transversal, TransversalKind
from .leaves import (
    BOUNDARY_TOL,
    TANGENCY_TOL,
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
    if route.transversal.kind == TransversalKind.HOROCYCLE:
        return FoliationSlice(route.transversal, _horocycle_leaves(route))

    bound = route.transversal.curvature_bound
    if np.any(np.abs(route.h) > bound + route.tol):
        raise DomainError(
            f"curvature beyond the bound {bound!r} is not realizable by any leaf"
        )
    betas = [math.acos(-h) for h in np.clip(route.h, -bound, bound)]
    entries = _orthogonal_leaves(route.transversal, route.t.tolist(), betas)
    return FoliationSlice(route.transversal, tuple(entries))


def _orthogonal_leaves(
    transversal: Transversal, ts, betas
) -> list[tuple[float, Leaf]]:
    """``(t, leaf)`` for each leaf crossing a geodesic or hypercycle
    transversal orthogonally at parameter t (at s = e^(t L)), with boundary
    angle beta.  The transversal is read once per call: its properties
    cost more than a leaf's arithmetic."""
    L = transversal.curvature_bound
    if transversal.kind == TransversalKind.GEODESIC:
        leaf = leaf_orthogonal_to_geodesic
    else:
        leaf = partial(leaf_orthogonal_to_hypercycle, transversal.phi)
    return [(t, leaf(math.exp(t * L), beta)) for t, beta in zip(ts, betas)]


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


#: Leaf pairs screened per numpy block by ``verify_disjoint``; bounds the
#: audit's working memory at a few MB whatever the family's size.
_AUDIT_BLOCK_CELLS = 1 << 14

#: Relative slack of the screen, 512 unit roundoffs: a generous bound on
#: how far numpy's value of each quantity the screen tests can sit from
#: the one ``carrier_contact`` computes, relative to the pair's sizes.
#: The two differ through ``np.hypot`` against ``math.hypot``, ``r*r``
#: against ``r**2`` and the grouping of the crossing's height, each a few
#: ulps, and through the rounding that follows.
_SCREEN_SLACK = 2.0**-44


def verify_disjoint(slice_: FoliationSlice) -> DisjointnessReport:
    """Check every leaf pair of the slice by direct carrier intersection.

    This is the audit route: it never consults the closed-form
    disjointness predicates, so its verdicts are independent evidence.
    A report is clean when no pair has a transverse or tangent contact
    above the boundary (ideal tangencies at y <= ``leaves.BOUNDARY_TOL``
    are fine); gaps up to ``leaves.TANGENCY_TOL`` count as tangencies.

    Each pair is intersected after scaling both leaves by 2**-k, where
    2**k is the scale of the lower leaf: its crossing with the
    transversal, e^(t L) rounded to a power of two (L = 1 on the
    geodesic, sin phi on a hypercycle), or the height of a horocycle.
    Both tolerances are therefore relative to that scale, and the verdict
    does not change when the route is shifted in t.  Scaling by a power
    of two is exact, so the witness points, scaled back, carry the same
    bits as an unscaled intersection would.

    Every circle pair is screened in numpy, in blocks of at most
    ``_AUDIT_BLOCK_CELLS`` pairs.  Only the pairs the screen flags, the
    pairs within a rounding guard of one of ``carrier_contact``'s
    decisions, and the pairs with a line carrier go through
    ``carrier_contact``.  So the report is, bit for bit, the one a
    pair-by-pair loop over the scaled pairs gives.  Cost: O(n^2) numpy
    work in blocks of bounded memory, plus O(r) Python, where r counts
    the recomputed pairs (on most valid routes, none).
    """
    entries = slice_.all_entries()
    n = len(entries)
    k = _scale_exponents(slice_.transversal, [t for t, _, _ in entries])
    # Lines enter the columns as nan, which the screen never settles.
    shapes = [leaf.shape for _, leaf, _ in entries]
    cx, cy, r = (
        np.array([getattr(s, name, math.nan) for s in shapes], dtype=float)
        for name in ("cx", "cy", "radius")
    )
    intersecting = []
    tangent = []
    lo = 0
    while lo < n - 1:
        hi = min(n - 1, lo + max(1, _AUDIT_BLOCK_CELLS // (n - 1 - lo)))
        i, j = _upper_pairs(n, lo, hi)
        e = -k[i]
        settled = _screen(
            *(np.ldexp(col[idx], e) for idx in (i, j) for col in (cx, cy, r))
        )
        for p in np.flatnonzero(~settled):
            t1, leaf1, _ = entries[i[p]]
            t2, leaf2, _ = entries[j[p]]
            scale = int(k[i[p]])
            contact = carrier_contact(_scaled(leaf1, -scale), _scaled(leaf2, -scale))
            if contact.kind == "coincident":
                intersecting.append(
                    PairContact(t1, t2, "coincident", math.nan, math.nan)
                )
                continue
            upper = [(x, y) for x, y in contact.points if y > BOUNDARY_TOL]
            if not upper:
                continue
            x, y = (math.ldexp(v, scale) for v in upper[0])
            if contact.kind == "tangent":
                tangent.append(PairContact(t1, t2, "tangent", x, y))
            else:
                intersecting.append(PairContact(t1, t2, "transverse", x, y))
        lo = hi
    return DisjointnessReport(
        clean=not intersecting and not tangent,
        pair_count=n * (n - 1) // 2,
        intersecting=tuple(intersecting),
        tangent=tuple(tangent),
    )


def _scale_exponents(transversal: Transversal, ts) -> np.ndarray:
    """The power-of-two scale k of each leaf: the leaf at t crosses the
    transversal at about 2**k."""
    if transversal.kind == TransversalKind.HOROCYCLE:
        return np.full(len(ts), math.frexp(transversal.height)[1], dtype=np.intc)
    L = transversal.curvature_bound
    return np.rint(np.asarray(ts, dtype=float) * L / math.log(2.0)).astype(np.intc)


def _upper_pairs(n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (i, j) with lo <= i < hi and i < j < n, ordered by
    i, then j."""
    rows = np.arange(lo, hi)
    counts = n - 1 - rows
    i = np.repeat(rows, counts)
    j = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts - rows - 1, counts)
    return i, j


def _scaled(leaf: Leaf, e: int) -> Leaf:
    """``leaf`` scaled about the origin by 2**e, bit for bit.

    The constructors are bypassed: ``Line`` would renormalise its
    direction, and ``Leaf`` checks its carrier against absolute
    tolerances that mean nothing at another scale.
    """
    s = leaf.shape
    if isinstance(s, Circle):
        fields = {name: math.ldexp(getattr(s, name), e) for name in ("cx", "cy", "radius")}
    else:
        fields = {"x0": math.ldexp(s.x0, e), "y0": math.ldexp(s.y0, e), "dx": s.dx, "dy": s.dy}
    shape = object.__new__(type(s))
    shape.__dict__.update(fields)
    scaled = object.__new__(Leaf)
    scaled.__dict__.update(shape=shape, beta=leaf.beta)
    return scaled


def _screen(x1, y1, r1, x2, y2, r2) -> np.ndarray:
    """Which circle pairs ``carrier_contact`` certainly leaves unflagged.

    Follows ``leaves._circle_circle`` step by step: not coincident, and
    either concentric, or neither tangent nor crossing above
    ``BOUNDARY_TOL``.  A decision is settled only when numpy's value
    clears its threshold by more than a bound on the rounding gap
    between the two computations; nan and inf settle nothing.
    """
    g, tol = _SCREEN_SLACK, TANGENCY_TOL
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dx, dy = x2 - x1, y2 - y1
        d = np.hypot(dx, dy)
        rdiff = np.abs(r1 - r2)
        gap = np.minimum(np.abs(d - (r1 + r2)), np.abs(d - rdiff))
        err_d = g * (d + r1 + r2)
        coincident = (d <= tol + err_d) & (rdiff <= tol)
        near_tangent = gap <= tol + err_d
        # The chord's foot a along the centre line, and disc = r1^2 - a^2;
        # q = (r1^2 + r2^2 + d^2) / d bounds 2|a|.
        r1r1, r2r2, dd = r1 * r1, r2 * r2, d * d
        a = (r1r1 - r2r2 + dd) / (2.0 * d)
        q = (r1r1 + r2r2 + dd) / d
        disc = r1r1 - a * a
        err_disc = 2.0 * g * (r1r1 + q * q)
        root = np.sqrt(np.maximum(disc, 0.0))
        top = y1 + (a * dy + root * np.abs(dx)) / d
        err_top = err_disc / root + g * (np.abs(y1) + 2.0 * q + 2.0 * root)
        apart = disc < -err_disc
        low_crossing = (disc > err_disc) & (top < BOUNDARY_TOL - err_top)
    return ~coincident & ((d == 0.0) | (~near_tangent & (apart | low_crossing)))


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
    ts = [t for t, _ in slice_.leaves]
    if step is None:
        step = float(np.median(np.diff(ts))) if len(ts) > 1 else 0.5
    if not step > 0:
        raise DomainError(f"extension step must be positive, got {step!r}")

    t_lo, leaf_lo = slice_.leaves[0]
    t_hi, leaf_hi = slice_.leaves[-1]
    new_ts, betas = [], []
    for k in range(1, count + 1):
        new_ts += [t_lo - k * step, t_hi + k * step]
        betas += [leaf_lo.beta, leaf_hi.beta]
    added = _orthogonal_leaves(slice_.transversal, new_ts, betas)
    added.sort(key=lambda e: e[0])
    return replace(slice_, extension_leaves=slice_.extension_leaves + tuple(added))


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
    dh = np.zeros(n)

    if name == "totally_geodesic":
        h = np.zeros(n)
    elif name == "horospherical":
        if tr.kind != TransversalKind.GEODESIC:
            raise DomainError("the horospherical family lives on the geodesic")
        h = np.full(n, -1.0)
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
    else:  # custom_constant_max
        h = np.full(n, bound)
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
    return _drawn_route(transversal, window, n, margin, seed, None)[0]


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
    return _drawn_route(transversal, window, n, margin, seed, bump)


def _drawn_route(transversal, window, n, margin, seed, bump):
    """The drawers' body: the route, and the burst window when ``bump`` is
    set.  Draws the slopes, the burst's start and length, then the offset."""
    phi_eff, L = _effective_phi(transversal), transversal.curvature_bound
    rng = np.random.default_rng(seed)
    t = np.linspace(window[0], window[1], n)
    slopes = rng.uniform(-0.8 * L, L - margin, n - 1)
    burst = None
    if bump is not None:
        start = int(rng.integers(n // 4, n // 2))
        stop = min(start + int(rng.integers(2, 6)), n - 1)
        slopes[start:stop] = L + bump
        burst = (float(t[start]), float(t[stop]))
    g = np.concatenate(([0.0], np.cumsum(slopes * np.diff(t)))) + rng.uniform(-1, 1)
    h = np.array([profile_inverse(phi_eff, y) for y in g])
    return Route(transversal, t, h), burst


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


#: Sweep pairs whose predicate slack lies within this of 0 are too close
#: to tangency for float arithmetic to decide, and are skipped.
_SLACK_MARGIN = 1e-7


def run_disjointness_agreement(
    family: str, n: int = 10000, seed: int = 0
) -> AgreementStats:
    """Compare a closed-form disjointness predicate against the direct
    carrier-intersection oracle on random admissible leaf pairs.

    The predicates read ``slack >= 0`` past their domain checks, which
    every draw passes.  Tuples whose slack falls inside ``_SLACK_MARGIN``
    and tuples the oracle itself flags as tangent are skipped; everything
    else must agree exactly.
    """
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
            leaf1 = leaf_orthogonal_to_geodesic(s1, beta1)
            leaf2 = leaf_orthogonal_to_geodesic(s2, beta2)
            params = (s1, beta1, s2, beta2)
        else:
            phi = rng.uniform(0.1, math.pi / 2 - 0.02)
            beta1, beta2 = _draw_betas(
                rng, math.pi / 2 - phi, math.pi / 2 + phi
            )
            slack = _hypercycle_slack(phi, s1, beta1, s2, beta2)
            leaf1 = leaf_orthogonal_to_hypercycle(phi, s1, beta1)
            leaf2 = leaf_orthogonal_to_hypercycle(phi, s2, beta2)
            params = (phi, s1, beta1, s2, beta2)
        if math.isfinite(slack) and abs(slack) < _SLACK_MARGIN:
            skipped_margin += 1
            continue
        contact = carrier_contact(leaf1, leaf2)
        if contact.kind == "tangent":
            skipped_tangent += 1
            continue
        observed = contact.kind == "coincident" or any(
            y > BOUNDARY_TOL for _, y in contact.points
        )
        compared += 1
        if (slack >= 0.0) == (not observed):
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
