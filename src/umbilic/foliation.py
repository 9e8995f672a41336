"""Building, extending, and auditing leaf families from validated routes."""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidRouteError
from .halfplane import Transversal, TransversalKind, _crossing
from .leaves import (
    _COINCIDENT,
    _TANGENT,
    BOUNDARY_TOL,
    CONTACT_KINDS,
    TANGENCY_TOL,
    Circle,
    Leaf,
    Line,
    _beyond_bound,
    _carrier_contacts,
    _foot,
    _geodesic_slack,
    _hypercycle_gap,
    _leaf_kinds,
    _line_contacts,
    _line_direction,
    _math_map,
    _orthogonal_leaves,
    _ray,
    _refused_leaves,
    _upper_contacts,
    carrier_contact,  # unused here; the benchmark's tracer wraps this name
    leaf_orthogonal_to_geodesic,
    leaf_orthogonal_to_hypercycle,
)
from .validation import (
    DEFAULT_TOL,
    Route,
    _effective_phi,
    _is_valid,
    _RowTable,
    profile_inverse,
    validate,
)


@dataclass(frozen=True)
class PairContact:
    """A leaf pair flagged by the audit, with one witness point (nan for
    coincident carriers, which share their whole arc)."""

    t1: float
    t2: float
    kind: str
    x: float
    y: float


class PairContacts(_RowTable):
    """An audit's flagged pairs as five columns (see
    ``validation._RowTable``): ``t1``, ``t2``, ``kind`` (codes into
    ``CONTACT_KINDS``), ``x`` and ``y``."""

    __slots__ = ("t1", "t2", "kind", "x", "y")
    _kinds = CONTACT_KINDS

    @staticmethod
    def _row(*fields):
        return PairContact(*fields)


#: The contacts of an audit that flags nothing, shared: its columns are read-only.
_NO_CONTACTS = PairContacts(*np.empty((5, 0)))


@dataclass(frozen=True)
class DisjointnessReport:
    clean: bool
    pair_count: int
    intersecting: Sequence[PairContact]
    tangent: Sequence[PairContact]


@dataclass(frozen=True, eq=False)
class FoliationSlice:
    """An ordered leaf family over a transversal: one row (t, h, extension)
    per route sample and per extension leaf, sorted by t, sampled leaves
    first on ties.  Row (t, h) is the leaf ``_leaf_map`` builds, crossing
    the transversal orthogonally at t with mean curvature h: the level
    clipped to the band, or on a horocycle 0 for a line and the level
    clamped to [-1, 0) for a circle."""

    transversal: Transversal
    t: np.ndarray
    h: np.ndarray
    extension: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("t", float), ("h", float), ("extension", bool)):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=dtype))
        if not (self.t.ndim == 1 and self.t.shape == self.h.shape == self.extension.shape):
            raise DomainError("a slice needs t, h and extension columns of one length")
        infinite = np.flatnonzero(~np.isfinite(self.t))
        if infinite.size:
            row = int(infinite[0])
            raise DomainError(f"slice row {row} has t={float(self.t[row])!r}, which is not finite")
        if not np.all(self.t[1:] >= self.t[:-1]):
            raise DomainError("slice rows must be sorted by t")
        if not np.all(np.abs(self.h) <= 1.0):
            raise DomainError("slice levels must be finite, with |h| <= 1")

    def all_entries(self) -> list[tuple[float, Leaf, bool]]:
        """Every leaf as ``(t, leaf, is_extension)``, in row order."""
        leaf = _leaf_map(self.transversal)
        rows = zip(self.t.tolist(), self.h.tolist(), self.extension.tolist())
        return [(t, leaf(t, h), ext) for t, h, ext in rows]

    @property
    def leaves(self) -> tuple[tuple[float, Leaf], ...]:
        """``(t, leaf)`` for each sampled leaf, in t order."""
        return tuple((t, leaf) for t, leaf, ext in self.all_entries() if not ext)

    @property
    def extension_leaves(self) -> tuple[tuple[float, Leaf], ...]:
        """``(t, leaf)`` for each extension leaf, in t order."""
        return tuple((t, leaf) for t, leaf, ext in self.all_entries() if ext)


def synthesize(route: Route, force: bool = False) -> FoliationSlice:
    """Turn a route into its leaf family.

    Each sample (t, h) becomes the orthogonal leaf at the transversal
    point for t with boundary angle arccos(-h).  Invalid routes are
    rejected with the verdict attached unless ``force`` is set, in which
    case the (self-intersecting) family is built anyway for diagnostics.

    Building needs only the verdict's yes or no, so the route is checked
    by ``validation._is_valid``.  After ``validate_c0`` (or
    ``validate_horocycle``) on the same route it checks nothing again: it
    reads the answer the route recorded (see ``Route``).  Otherwise it
    evaluates only the pairs that can fail: O(n) on a valid route unless
    some of its pairs come within rounding of -tol, also where its
    columns tie (the pencil, ``constant``, ``totally_geodesic``).
    ``validate`` runs only on a route that fails, for the verdict the
    error carries.  A route that fails by more than rounding fails a
    column bound, which ``_is_valid`` reads without evaluating a pair, so
    only ``validate`` searches it.
    """
    if not force and not _is_valid(route):
        raise InvalidRouteError("route failed validation", verdict=validate(route))
    tr, h, tol = route.transversal, route.h, route.tol
    if tr.kind == TransversalKind.HOROCYCLE:
        # A vertical line within tol of 0, else a circle centred on the line.
        line = np.abs(h) <= tol
        for level in h[~line & ~((-1.0 - tol <= h) & (h < 0))][:1].tolist():
            if level < 0:
                raise DomainError(f"no leaf carries mean curvature {level!r}")
            raise DomainError("no leaf with h > 0 crosses a horizontal transversal orthogonally")
        h = np.where(line, 0.0, np.maximum(h, -1.0))
    else:
        bound = tr.curvature_bound
        if np.any(_beyond_bound(h, bound, tol)):
            raise DomainError(
                f"curvature beyond the bound {bound!r} is not realizable by any leaf"
            )
        h = np.clip(h, -bound, bound)
    return FoliationSlice(tr, route.t, h, np.zeros(route.n, dtype=bool))


def _leaf_map(transversal: Transversal):
    """The map ``(t, h) -> Leaf`` of a slice's rows.  Reads the
    transversal once, not once per leaf."""
    if transversal.kind == TransversalKind.HOROCYCLE:
        height = transversal.height
        return lambda t, h: (
            Leaf(Line(t, height, 0.0, 1.0), math.pi / 2)
            if h == 0.0
            else Leaf(Circle(t, height, height / -h), math.acos(-h))
        )
    L, phi = transversal.curvature_bound, transversal.phi
    if phi is None:
        return lambda t, h: leaf_orthogonal_to_geodesic(_crossing(t, L), math.acos(-h))
    return lambda t, h: leaf_orthogonal_to_hypercycle(phi, _crossing(t, L), math.acos(-h))


def _slice_carriers(slice_: FoliationSlice, k):
    """The leaves ``all_entries`` builds, each row p scaled by 2**-k[p]
    (``k`` an int column, or 0 for the leaves themselves, bit for bit),
    as carrier columns ``(cx, cy, radius, x0, y0, dx, dy)``, nan on the
    rows of the other shape (see ``LeafTable``), with each leaf's angle
    beta = acos(-h) and cos beta (a geodesic's line rows have h = 1, so
    beta = pi, as the constructor gives them).  A row is built from the
    crossing (or the horocycle's height, and t) scaled by 2**-k[p], so a
    crossing below the normal float range keeps its bits.
    A line's direction is one unit ``Line`` per transversal, normalised
    once, and is not scaled.

    The rows the constructors' own tests refuse (``_refused_leaves``, on
    the scaled carriers scaled back, which are the unscaled ones in the
    normal range and zero or infinite wherever those are), and the
    levels beyond a hypercycle's band, are built through them in row
    order, so a slice ``all_entries`` refuses raises the error it meets
    first.  Where ``math.exp`` overflows a crossing, every row is built
    so."""
    tr, t, h = slice_.transversal, slice_.t, slice_.h
    beta = _math_map(math.acos, -h)
    cbeta = _math_map(math.cos, beta)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if tr.kind == TransversalKind.HOROCYCLE:
            t, height = np.ldexp(t, -k), np.ldexp(tr.height, -k)
            line, unit = h == 0.0, (0.0, 1.0)
            circle = (np.where(line, math.nan, c) for c in (t, height, height / -h))
            lines = (np.where(line, c, math.nan) for c in (t, height, *unit))
            columns = (*circle, *lines)
        else:
            try:
                s = _math_map(math.exp, t * tr.curvature_bound)
            except OverflowError:  # math.exp refuses a row: refuse them all, in order
                s = np.full(h.size, math.inf)
            ray = _ray(tr.phi)
            unit = _line_direction(ray)
            columns = _orthogonal_leaves(np.ldexp(s, -k), cbeta, ray)
        unscaled = (*(np.ldexp(c, k) for c in columns[:5]), *columns[5:])
    line = np.isnan(columns[2])
    refused = np.zeros(h.size, dtype=bool)
    if tr.kind == TransversalKind.HYPERCYCLE:
        refused = _beyond_bound(cbeta, math.sin(tr.phi))
    # A crossing that is not positive leaves a circle of radius 0 and a
    # line with a nan point, both of which _refused_leaves refuses.
    refused |= _refused_leaves(line, unscaled, beta, cbeta, unit)
    rows = np.flatnonzero(refused)
    leaf = _leaf_map(tr)  # the constructors raise their own error on the first row they refuse
    for t, h in zip(slice_.t[rows].tolist(), slice_.h[rows].tolist()):
        leaf(t, h)
    return columns, beta, cbeta


#: A slice's leaves as columns, one row per slice row: bit for bit the
#: ``Leaf`` objects ``all_entries`` builds.  ``cx, cy, radius`` are the
#: circle carriers and ``x0, y0, dx, dy`` the line carriers, nan on the
#: rows of the other shape (so a line's radius is nan); ``beta``, ``h``
#: and ``kind`` are each leaf's ``beta``, ``h`` and ``kind.value``.
LeafTable = namedtuple("LeafTable", "cx cy radius x0 y0 dx dy beta h kind")


def leaf_table(slice_: FoliationSlice) -> LeafTable:
    """The slice's leaves as a ``LeafTable``, in O(n) numpy plus the
    ``math`` maps of exp, acos and cos that the constructors use; a slice
    ``all_entries`` refuses raises the error it meets first (see
    ``_slice_carriers``)."""
    columns, beta, cbeta = _slice_carriers(slice_, 0)
    return LeafTable(*columns, beta, -cbeta, _leaf_kinds(beta))


#: Leaf pairs per numpy block of ``verify_disjoint`` and of the lemma
#: sweep; bounds their working memory at a few MB whatever the family's
#: size or the sweep's length.
_AUDIT_BLOCK_CELLS = 1 << 14

#: Relative slack of the screen, 512 unit roundoffs: a generous bound on
#: how far numpy's value of each quantity the screen tests can sit from
#: the one the contact kernel (``leaves._carrier_contacts``) computes,
#: relative to the pair's sizes.  The two differ through ``np.hypot``
#: against ``math.hypot``, ``r*r`` against ``r**2`` and the grouping of
#: the crossing's height, each a few ulps, and through the rounding that
#: follows.
_SCREEN_SLACK = 2.0**-44


def verify_disjoint(slice_: FoliationSlice) -> DisjointnessReport:
    """Check every leaf pair of the slice by direct carrier intersection.

    This is the audit route: it never consults the closed-form
    disjointness predicates, so its verdicts are independent evidence.
    A report is clean when no pair has a contact above the boundary, by
    ``leaves.upper_contact`` (ideal tangencies are fine); gaps up to
    ``leaves.TANGENCY_TOL`` count as tangencies.  A slice ``leaf_table``
    refuses raises the same error (``_slice_carriers``).

    The verdict is also the one in H^n, which the paper asks about: the
    transversal lies in a vertical 2-plane P of the upper half-space,
    and each leaf is the hypersurface whose trace in P is its carrier.  A
    leaf crosses the transversal orthogonally, so a sphere's centre lies
    on the transversal's tangent line at the crossing and a hyperplane's
    normal points along it; both lie in P, so every leaf is symmetric
    about P.  Two leaves meet, if at all, in an (n-2)-sphere centred in P
    within a hyperplane whose normal lies in P, or in a flat of constant
    height through a point of P; either way their highest common point
    lies in P.  So they meet in the upper half-space exactly when their
    traces meet in the upper half-plane.

    Each pair is intersected after scaling both leaves by 2**-k, where
    2**k is the scale of the lower leaf: its crossing with the
    transversal, e^(t L) rounded to a power of two (L = 1 on the
    geodesic, sin phi on a hypercycle), or the height of a horocycle.
    Both tolerances are therefore relative to that scale, and the verdict
    does not change when the route is shifted in t.  The scaled leaves
    are built from the scaled crossing (``_slice_carriers``), so the witness
    points, scaled back, carry the bits of an unscaled intersection, and
    a crossing below the normal float range (t L below about -708) loses
    none.  A pair the audit has to intersect (see below) whose carriers,
    or their squares, leave the float range at that scale raises
    ``DomainError``: on a horocycle slice with t / height near 1e308 or a
    level |h| below about 1e-154 (a circle's radius is height / |h|), or
    on leaves whose crossings lie more than about 2**511 apart.

    Consecutive leaves certify the pairs they span.  Every leaf of a slice
    crosses its transversal orthogonally, since a slice holds only (t, h)
    rows, and on a geodesic or hypercycle it crosses it once, so it bounds
    a region R_t (its disc) holding the transversal below t.  When the
    leaves at t_i <= t_(i+1) share no point of the closed half-plane,
    leaf i lies inside R_(i+1), so R_i is inside R_(i+1), and by
    transitivity leaves i and j are disjoint whenever every link (pair
    of consecutive leaves) from i to j is.  So the links, each scaled by
    2**-k_i of its lower leaf, are screened first, and a link is cleared
    only when the screen finds its carriers concentric, certainly apart
    or crossing below the axis by more than the rounding guard, and not
    within ``TANGENCY_TOL`` plus that guard (distinct concentric circles
    never meet, so the ``totally_geodesic`` family clears every link).
    A crossing up to ``BOUNDARY_TOL`` above the axis, which the pair
    screen tolerates, does not clear a link, because each link measures
    it against its own lower scale: axis-orthogonal leaves at heights 1,
    4 and 16 whose links cross 0.7e-9 of that scale above the axis have
    the outer pair crossing at 2.3e-9 of the first leaf's scale.  The
    tangency tolerance carries over: a pair (i, j) within ``TANGENCY_TOL``
    of touching in the half-plane squeezes leaf i+1 between its nearest
    points, so link (i, i+1), scaled by the same 2**-k_i, is at least as
    close and not cleared.  Links with a line carrier, and every link of
    a horocycle slice (whose leaves cross it twice), stay open: the links
    and probes are screened on the circle columns alone, where a line's
    radius is nan, since the argument holds for discs only.

    The cleared links split the rows into runs, whose discs nest.  For
    runs A before B, a probe (a, first(B)) cleared by the link rule, at
    a's scale, puts leaf a inside R_first(B), so inside R_b, for every b
    in B.  The tolerances carry over as for links: a pair (a, b) within
    ``TANGENCY_TOL`` of touching squeezes first(B) between its nearest
    points, so the probe, scaled like the pair, is as close.  Probes are
    screened with the boundary at 0, like links: a crossing above the
    axis, however low, leaves part of leaf a outside R_first(B), where a
    later leaf of B may meet it.  Only the pairs (a, b) whose probe stays
    open are screened.  When every run is one row (every link open), each
    probe is the pair itself, so no probe is screened: the pair screen, at
    ``BOUNDARY_TOL`` > 0, leaves unflagged every pair a probe would clear.
    A link or probe whose carriers, or their squares, leave the float
    range settles nothing and stays open, so the audit refuses a pair for
    the float range only when it has to intersect it.

    The pairs left are screened in numpy, in (i, j) order, in blocks of
    at most ``_AUDIT_BLOCK_CELLS`` pairs and probes.  The pair screen
    settles, unflagged, the pairs ``carrier_contact`` certainly leaves
    unflagged, pairs with a line included (a line's point is scaled, its
    direction is not, and a pair of lines takes the kernel's own steps),
    and also those certainly tangent at a point no higher than
    ``BOUNDARY_TOL`` (``_screen``'s ``tangent``), as on
    ``horospherical``, whose leaves all touch at the origin.  The rest of
    each block, crossings and the pairs near a decision alike, go to the
    contact kernel (``leaves._carrier_contacts``) in one call, and
    ``upper_contact``'s first point above ``BOUNDARY_TOL`` is the
    witness, scaled back by ``ldexp``.  So the report is, bit for bit,
    the one ``carrier_contact`` gives on each scaled pair in turn, and
    ``pair_count`` still counts all n (n - 1) / 2 pairs; its contacts
    stay columns (``PairContacts``).  Cost, for R runs: O(n) numpy for
    the links, then O(n R) numpy for the probes plus the k candidate
    pairs they leave, and for the c pairs the screen does not leave
    unflagged O(c) numpy and ``math`` calls (two ``r**2`` per pair, and
    one ``math.hypot`` off the geodesic and the horocycle, whose centres
    share an axis); O(n^2) numpy when R = n, as on horocycle slices and
    on a family whose every pair crosses or whose every link has a line
    (a family of lines, apart, makes no kernel call).  A family whose
    links all clear (R = 1) costs its carriers and one link screen,
    O(n): no probe or pair is screened, and its report shares one empty,
    read-only table of contacts.
    """
    tr, n = slice_.transversal, slice_.t.size
    if tr.kind == TransversalKind.HOROCYCLE:  # 2**k[i] is the scale of leaf i
        k = np.full(n, math.frexp(tr.height)[1], dtype=np.intc)
    else:  # past the int range e^(t L) leaves the float range, which _slice_carriers refuses
        with np.errstate(over="ignore", invalid="ignore"):
            k = np.rint(slice_.t * tr.curvature_bound / math.log(2.0)).astype(np.intc)
    columns = _slice_carriers(slice_, k)[0]  # each row at its own scale 2**-k
    circles = columns[:3]
    # Links and probes see the circles alone: a line's nan radius keeps them open.
    pairs = _probed_pairs(circles, k, _cleared_links(tr, circles, k))
    if not np.isnan(circles[2]).any():
        columns = circles

    ts = slice_.t
    found = []
    for i, j in pairs:
        pair = _pair_columns(columns, i, j, k)
        unflagged, _ = _screen(*pair, tangent=True)
        rows = np.flatnonzero(~unflagged)  # the pairs that may be flagged
        if not rows.size:
            continue
        a, b = i[rows], j[rows]
        kind, points, out = _carrier_contacts(*(c[rows] for c in pair))
        *witness, keep = _upper_contacts(kind, points)
        with np.errstate(over="ignore"):
            unscaled = [np.ldexp(v, k[a]) for v in witness]
        # A witness may leave the float range once scaled back, too.
        for v, w in zip(witness, unscaled):
            out |= keep & np.isfinite(v) & np.isinf(w)
        if out.any():
            lo, hi = a[out.argmax()], b[out.argmax()]
            raise DomainError(
                f"the leaves at t={float(ts[lo])!r} and t={float(ts[hi])!r} leave the "
                f"float range at the audit's scale 2**{int(k[lo])}"
            )
        if keep.any():
            found.append((ts[a[keep]], ts[b[keep]], kind[keep], *(v[keep] for v in unscaled)))
    pair_count = n * (n - 1) // 2
    if not found:
        return DisjointnessReport(True, pair_count, _NO_CONTACTS, _NO_CONTACTS)
    contacts = [np.concatenate(c) for c in zip(*found)]
    tangent = contacts[2] == _TANGENT
    return DisjointnessReport(
        clean=False,
        pair_count=pair_count,
        intersecting=PairContacts(*(c[~tangent] for c in contacts)),
        tangent=PairContacts(*(c[tangent] for c in contacts)),
    )


def _pair_columns(columns, i, j, k) -> list[np.ndarray]:
    """The carrier columns of leaves i, then of leaves j (index arrays,
    or slices, which give views), at the scale
    2**-k[i] of each pair's lower leaf.  ``columns`` hold each row at its
    own scale 2**-k (see ``_slice_carriers``), so leaf j is scaled by
    2**(k[j] - k[i]), which is exact: all but a line's direction
    (dx, dy), the last two of seven columns."""
    e = k[j] - k[i]
    with np.errstate(over="ignore"):
        return [col[i] for col in columns] + [
            col[j] if c >= 5 else np.ldexp(col[j], e) for c, col in enumerate(columns)
        ]


def _cleared_links(transversal: Transversal, columns, k) -> np.ndarray:
    """Which links (l, l + 1) of the audit are cleared: none on a
    horocycle slice, whose leaves cross it twice.

    See ``verify_disjoint``: a link is cleared when ``_screen`` with the
    boundary at 0 finds it unflagged.  ``columns`` are the circle columns
    alone, each row at its own scale 2**-k (see ``_pair_columns``), so a
    line (nan radius) keeps its links open.
    """
    if transversal.kind == TransversalKind.HOROCYCLE:
        return np.zeros(k.size - 1, dtype=bool)
    return _screen(*_pair_columns(columns, np.s_[:-1], np.s_[1:], k), boundary=0.0)[0]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges ``starts[p] + (0, 1, ..., counts[p] - 1)``, concatenated."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _blocks(counts: np.ndarray):
    """Slices ``[lo, hi)`` of consecutive items, in order, whose counts
    sum to at most ``_AUDIT_BLOCK_CELLS``, or of a single item."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < counts.size:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _AUDIT_BLOCK_CELLS, "right")))
        yield lo, hi
        lo = hi


def _probed_pairs(columns, k, cleared):
    """Blocks of the pairs (a, b) in different runs whose row probe
    (a, first(B)) stays open (see ``verify_disjoint``), ordered by a,
    then b.

    Rows go in blocks of at most ``_AUDIT_BLOCK_CELLS`` probes, or of one
    row.  When each run is one row, every probe is the pair itself and
    stays open, unscreened; when every link clears there is one run, and
    no pair.  ``columns`` are the circle columns alone, each row at its
    own scale, so a line keeps its probes open.
    """
    if cleared.all():
        return
    is_last = np.append(~cleared, True)[: k.size]
    last = np.flatnonzero(is_last)  # the last row of each run
    run = np.cumsum(is_last) - is_last
    later = last.size - 1 - run  # probes of each row, > 0 on a prefix
    later = later[later > 0]
    every_link_open = last.size == k.size
    for lo, hi in _blocks(later):
        a = np.arange(lo, hi)
        i = np.repeat(a, later[a])
        runs = _ranges(run[a] + 1, later[a])  # each probe's run B
        j = last[runs - 1] + 1  # first(B)
        if every_link_open:
            probe_open = np.ones(i.size, dtype=bool)
        else:
            probe_open = ~_screen(*_pair_columns(columns, i, j, k), boundary=0.0)[0]
        rows, starts = i[probe_open], j[probe_open]
        counts = last[runs[probe_open]] + 1 - starts
        for p0, p1 in _blocks(counts):
            c = counts[p0:p1]
            yield np.repeat(rows[p0:p1], c), _ranges(starts[p0:p1], c)


def _screen(
    *columns, boundary: float = BOUNDARY_TOL, tangent: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Which leaf pairs ``carrier_contact`` certainly leaves unflagged,
    and which it certainly finds crossing above the boundary: the cheap
    filter in front of the contact kernel (``leaves._carrier_contacts``).

    ``columns`` are the carrier columns of the first leaves, then of the
    second: ``(cx, cy, radius)`` each, so that a line (nan radius)
    settles nothing, or the seven columns of ``_slice_carriers``.  With
    seven, the circle steps run on every pair (a line's nan radius
    settles nothing there) unless every pair has a line, and the pairs
    with a line then take the line-line steps and, where one leaf is a
    circle, the circle-line steps.
    Unflagged: neither coincident nor tangent, and no contact point
    higher than ``boundary`` (``BOUNDARY_TOL`` for the audit's pairs and
    the sweep, 0 for the audit's links and probes, which see circle
    columns only).  Crossing: transverse, with a contact point above
    ``boundary``.

    Circle pairs follow the kernel's circle steps: unflagged when
    concentric, apart or crossing no higher than the boundary.  Line
    pairs run the kernel's own steps (``leaves._line_contacts``), so
    their verdict is its own, coincident lines apart, which stay open.
    Circle-line pairs share the kernel's centre foot, and settle when
    apart or crossing (``_screen_circle_line``).  Near-tangent and
    near-coincident pairs stay open, except that with ``tangent`` set
    (the audit's pair screen) a pair certainly not coincident, within
    ``TANGENCY_TOL`` of touching, at a point no higher than the boundary
    is unflagged: ``upper_contact`` ignores it, as on ``horospherical``,
    whose leaves all touch at the origin.  Links and probes keep
    near-tangent pairs open, since a tangent link does not nest, and so
    does the sweep, which counts tangencies.  A decision is settled only
    when numpy's value clears its threshold by more than a bound on the
    rounding gap between the two computations; a pair with a nan or
    infinite field settles nothing, so the kernel still refuses the
    float range.
    """
    half = len(columns) // 2
    first, second = columns[:half], columns[half:]
    if half == 3:
        return _screen_circles(*first, *second, boundary, tangent)
    line1, line2 = np.isnan(first[2]), np.isnan(second[2])
    lines = line1 | line2  # the pairs with a line
    # A family of lines skips the circle steps, and a family of line pairs
    # the circle-line steps: each skip takes a third off its audit.
    if lines.all():
        unflagged, crossing = np.zeros((2, lines.size), dtype=bool)
        rows = slice(None)
    else:  # a line's circle fields are nan, so its pairs settle nothing here
        unflagged, crossing = _screen_circles(*first[:3], *second[:3], boundary, tangent)
        rows = np.flatnonzero(lines)
    # Each of these pairs settles in one branch at most: a mixed pair's
    # line fields are nan for one leaf, a line pair's circle fields for both.
    swap, cols = line1[rows], [c[rows] for c in columns]
    settled = _screen_lines(*cols[3:7], *cols[10:], boundary)
    if not (swap & line2[rows]).all():  # a mixed pair: its circle first, as carrier_contact's
        fields = zip(cols[:3] + cols[10:], cols[7:10] + cols[3:7])
        mixed = _screen_circle_line(*(np.where(swap, y, x) for x, y in fields), boundary, tangent)
        settled = settled[0] | mixed[0], settled[1] | mixed[1]
    unflagged[rows], crossing[rows] = settled
    return unflagged, crossing


def _screen_circles(x1, y1, r1, x2, y2, r2, boundary, tangent):
    """``_screen`` on circle pairs, following ``leaves._circle_contacts``."""
    g, tol = _SCREEN_SLACK, TANGENCY_TOL
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dx, dy = x2 - x1, y2 - y1
        d = np.hypot(dx, dy)
        rdiff = np.abs(r1 - r2)
        gap = np.minimum(np.abs(d - (r1 + r2)), np.abs(d - rdiff))
        # Coincident carriers (d and rdiff within tol) are near tangent too.
        err_gap = g * (d + r1 + r2)
        near_tangent = gap <= tol + err_gap
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
        crossing = disc > err_disc
        low_crossing = crossing & (top < boundary - err_top)
        high_crossing = crossing & (top > boundary + err_top)
        clear = ~near_tangent
        unflagged = clear & ((d == 0.0) | apart | low_crossing)
        if tangent and near_tangent.any():  # rdiff is carrier_contact's, bit for bit
            distinct = (rdiff > tol) | (d > tol + g * d)
            low = y1 + a * (dy / d) <= boundary - g * (np.abs(y1) + 2.0 * q)
            unflagged |= (gap <= tol - err_gap) & distinct & low
    return unflagged, clear & high_crossing


def _screen_circle_line(cx, cy, r, x0, y0, dx, dy, boundary, tangent):
    """``_screen`` on circle-line pairs, circle first, following
    ``leaves._circle_line_contacts``: the centre's foot f on the line
    (``leaves._foot``, the kernel's bits) lies at distance dist from it,
    and the line misses the circle (dist > r), touches it at f, or
    crosses it at f -+ half (dx, dy), the higher point at height
    f_y + half dy (dy >= 0).  Only dist (numpy's hypot for
    ``math.hypot``) and r*r (for ``r**2``) differ from the kernel's."""
    g, tol = _SCREEN_SLACK, TANGENCY_TOL
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # A sum is finite only where every field is (or it overflows, which settles nothing).
        finite = np.isfinite(cx + cy + r + x0 + y0 + dx + dy)
        fx, fy = _foot(cx, cy, x0, y0, dx, dy)
        dist = np.hypot(cx - fx, cy - fy)
        off, err_off = np.abs(dist - r), g * (dist + r)
        disc, err_disc = r * r - dist * dist, 2.0 * g * (r * r + dist * dist)
        half = np.sqrt(np.maximum(disc, 0.0))
        top = fy + half * dy
        err_top = err_disc / half + g * (np.abs(fy) + 2.0 * half)
        clear = finite & (off > tol + err_off)
        crossing = clear & (disc > err_disc)
        unflagged = clear & (dist > r) | crossing & (top < boundary - err_top)
        if tangent:  # the kernel touches at f, its own bits
            unflagged |= finite & (off <= tol - err_off) & (fy <= boundary)
    return unflagged, crossing & (top > boundary + err_top)


def _screen_lines(x1, y1, dx1, dy1, x2, y2, dx2, dy2, boundary):
    """``_screen`` on line pairs, by the kernel's own steps
    (``leaves._line_contacts``), so exact; coincident lines and pairs
    with a nan or infinite field stay open."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        finite = np.isfinite(x1 + y1 + dx1 + dy1 + x2 + y2 + dx2 + dy2)
        kind, points, _ = _line_contacts(x1, y1, dx1, dy1, x2, y2, dx2, dy2)
    above = finite & (points[1] > boundary)  # a line pair's one contact point
    return finite & ~above & (kind != _COINCIDENT), above


def extend_slice(
    slice_: FoliationSlice, count: int, allow_noop: bool = False
) -> FoliationSlice:
    """Prolong a hypercycle slice past both ends of its window.

    A valid slice over a hypercycle leaves two wedge-shaped residual
    regions uncovered; scaling the first and last leaves toward 0 and
    infinity fills them with equal-angle copies that stay disjoint from
    the whole family.  ``count`` leaves are added on each side, spaced
    by the median sample spacing in the route parameter (0.5 for a single
    leaf).

    An empty slice is a no-op.  Geodesic and horocycle slices have no
    residual region; they raise unless ``allow_noop`` is set, in which
    case they come back unchanged.
    """
    if count < 0:
        raise DomainError(f"extension count must be nonnegative, got {count!r}")
    sampled = np.flatnonzero(~slice_.extension)
    if count == 0 or not sampled.size:
        return slice_
    if slice_.transversal.kind != TransversalKind.HYPERCYCLE:
        if allow_noop:
            return slice_
        raise DomainError(
            "only hypercycle slices leave residual regions to extend into"
        )
    ts = slice_.t[sampled]
    k = np.arange(1, count + 1)
    with np.errstate(over="ignore"):  # a t past the float range is refused by the slice
        step = float(np.median(np.diff(ts))) if ts.size > 1 else 0.5
        t = np.concatenate((slice_.t, ts[0] - k * step, ts[-1] + k * step))
    h = np.concatenate((slice_.h, np.repeat(slice_.h[sampled[[0, -1]]], count)))
    extension = np.concatenate((slice_.extension, np.ones(2 * count, dtype=bool)))
    order = np.argsort(t, kind="stable")
    return FoliationSlice(slice_.transversal, t[order], h[order], extension[order])


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
    tol: float = DEFAULT_TOL,
) -> Route:
    """Sample a built-in family on a uniform grid.

    Every built-in satisfies the growth condition exactly; parameter
    combinations that would break that (a constant beyond the bound, the
    horospherical family off the geodesic) are rejected.  The sampled
    pencil is the exception on wide windows: storing h = -tanh t rounds
    its exact zero slack to about -1e-9, so it fails ``validate_c0``
    sooner the more samples it has.  At n = 121 the window (-9, 9)
    passes and (-9.5, 9.5) fails; at n = 1 000 (-8.7, 8.7) passes and
    (-9, 9) fails; from n = 4 000 on (-8.6, 8.6) passes and (-8.7, 8.7)
    fails.  Past |t| ~ 10.7 its samples lie within the tolerance of
    h = +-1 and fail both validators as misplaced pins.
    """
    if name not in BUILTIN_FAMILIES:
        raise DomainError(
            f"unknown family {name!r}; known: {', '.join(sorted(BUILTIN_FAMILIES))}"
        )
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n!r}")
    _check_window(window)
    tr = transversal if transversal is not None else Transversal.geodesic()
    if name in ("horospherical", "pencil") and tr.kind != TransversalKind.GEODESIC:
        raise DomainError(f"the {name} family lives on the geodesic")
    bound = tr.curvature_bound
    t = np.linspace(window[0], window[1], n)
    dh = np.zeros(n)

    if name == "totally_geodesic":
        h = np.zeros(n)
    elif name == "horospherical":
        h = np.full(n, -1.0)
    elif name == "pencil":
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


def _check_window(window) -> None:
    """Refuse a window that is not increasing or not of finite span."""
    if not window[0] < window[1]:
        raise DomainError(f"window must be increasing, got {window!r}")
    if not math.isfinite(float(window[1]) - float(window[0])):
        raise DomainError(f"window must span a finite length, got {window!r}")


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
    ``n`` must be at least 1, ``margin`` must lie in (0, 1.8 L), so that
    the slope range (-0.8 L, L - margin) is not empty, and ``window``
    must be increasing over a finite span.
    """
    return _drawn_route(transversal, window, n, margin, seed, burst=False)[0]


def perturbed_invalid_route(
    transversal: Transversal,
    window: tuple[float, float] = (-2.0, 2.0),
    n: int = 61,
    margin: float = 1e-3,
    seed: int = 0,
) -> tuple[Route, tuple[float, float]]:
    """A valid draw with one burst of over-steep profile growth injected.

    Returns the route and the parameter window of the injected burst; the
    burst pushes local slopes to L + 0.5, so validation must fail with a
    violating pair inside (or overlapping) that window.  The arguments
    are checked as ``random_valid_route``'s, but ``n`` must be at least 2.
    """
    return _drawn_route(transversal, window, n, margin, seed, burst=True)


def _drawn_route(transversal, window, n, margin, seed, burst):
    """The drawers' body: the route, and the burst window when ``burst``
    is set (else None).  Draws the slopes, the burst's start and length,
    then the offset."""
    phi_eff, L = _effective_phi(transversal), transversal.curvature_bound
    if n < 1 + burst:
        raise DomainError(f"n must be at least {1 + burst}, got {n!r}")
    if not 0.0 < margin < 1.8 * L:
        raise DomainError(f"margin must lie in (0, {1.8 * L!r}), got {margin!r}")
    _check_window(window)
    rng = np.random.default_rng(seed)
    t = np.linspace(window[0], window[1], n)
    slopes = rng.uniform(-0.8 * L, L - margin, n - 1)
    span = None
    if burst:
        start = int(rng.integers(n // 4, n // 2))
        stop = min(start + int(rng.integers(2, 6)), n - 1)
        slopes[start:stop] = L + 0.5
        span = (float(t[start]), float(t[stop]))
    g = np.concatenate(([0.0], np.cumsum(slopes * np.diff(t)))) + rng.uniform(-1, 1)
    return Route(transversal, t, profile_inverse(phi_eff, g)), span


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

    The pairs are drawn by ``_draw_blocks`` and judged a block at a time.
    The oracle's verdict comes from the audit's numpy ``_screen``, on the
    seven carrier columns of the leaves the constructors build, lines
    included, when the screen settles it either way; the pairs within a
    rounding guard of one of ``carrier_contact``'s decisions go to the
    contact kernel (``leaves._carrier_contacts``) in one call per block,
    and a block with none makes no call.  Margin-skipped pairs never
    reach the oracle.  The trig columns (sin phi, cos phi, cos beta1,
    cos beta2, the slacks' tan(beta/2) or cos(phi + beta), and the line
    directions' norm) are numpy's, each taken once per block, and sin phi
    and cos beta feed both the predicate and the carriers (see
    ``leaves._math_map`` for the trig-source rule).  Cost: O(n) numpy
    work in blocks of at most ``_AUDIT_BLOCK_CELLS`` pairs, with no
    per-pair Python outside the kernel's rows; the kernel takes none of
    the 40 000 draws of seeds 0 to 9 at n = 2 000 on both families, the
    3 230 with a line among them.
    """
    if family not in ("geodesic", "hypercycle"):
        raise DomainError(f"family must be geodesic or hypercycle, got {family!r}")
    if n < 0:
        raise DomainError(f"pair count must be nonnegative, got {n!r}")
    compared = skipped_margin = skipped_tangent = 0
    mismatches = []
    for params in _draw_blocks(family, n, seed):
        *head, s1, beta1, s2, beta2 = params  # head is (phi,) on the hypercycle
        cbeta1, cbeta2 = np.cos(beta1), np.cos(beta2)
        if head:
            sphi, cphi = np.sin(head[0]), np.cos(head[0])
            ray = (sphi, cphi, np.hypot(sphi, cphi))
            cos1, cos2 = np.cos(head[0] + beta1), np.cos(head[0] + beta2)
            slack = _hypercycle_gap(s1, s2, sphi, cbeta1, cbeta2, cos1, cos2)
        else:
            ray = None
            tan1, tan2 = np.tan(beta1 / 2.0), np.tan(beta2 / 2.0)
            slack = _geodesic_slack(s1, s2, cbeta1, cbeta2, tan1, tan2)
        margin = np.isfinite(slack) & (np.abs(slack) < _SLACK_MARGIN)
        first = _orthogonal_leaves(s1, cbeta1, ray)
        second = _orthogonal_leaves(s2, cbeta2, ray)
        disjoint, crossing = _screen(*first, *second)
        tangent = np.zeros_like(margin)
        rows = np.flatnonzero(~margin & ~disjoint & ~crossing)
        if rows.size:
            kind, points, _ = _carrier_contacts(*(c[rows] for c in (*first, *second)))
            tangent[rows] = kind == _TANGENT
            disjoint[rows] = ~_upper_contacts(kind, points)[2]
        judged = ~margin & ~tangent
        wrong = np.flatnonzero(judged & ((slack >= 0.0) != disjoint))
        compared += int(np.count_nonzero(judged))
        skipped_margin += int(np.count_nonzero(margin))
        skipped_tangent += int(np.count_nonzero(tangent))
        mismatches += zip(*(col[wrong].tolist() for col in params))
    return AgreementStats(
        family=family,
        total=n,
        compared=compared,
        agreements=compared - len(mismatches),
        skipped_margin=skipped_margin,
        skipped_tangent=skipped_tangent,
        mismatches=tuple(mismatches),
    )


def _draw_blocks(family: str, n: int, seed: int):
    """The sweep's n draws, as blocks of columns ``(phi,) s1, beta1, s2,
    beta2`` of at most ``_AUDIT_BLOCK_CELLS`` pairs each.

    Each pair reads the next ``base + 4`` doubles of ``default_rng(seed)``
    (``base`` is 2 on the geodesic, 3 on the hypercycle), so the draws do
    not depend on the block size: log-uniform s1 in [0.2, 2] and s2 / s1
    in [1.001, 3], a uniform phi in [0.1, pi/2 - 0.02] on the hypercycle,
    then beta1 and beta2, two doubles each (see ``_angle``), in [0, pi] on
    the geodesic and [pi/2 - phi, pi/2 + phi] on the hypercycle.  Each
    double is read as ``rng.uniform`` reads it (see ``_uniform``), and the
    exponential is numpy's (see ``leaves._math_map``).
    """
    rng = np.random.default_rng(seed)
    base = 2 if family == "geodesic" else 3
    for lo in range(0, n, _AUDIT_BLOCK_CELLS):
        raw = rng.random((min(_AUDIT_BLOCK_CELLS, n - lo), base + 4)).T
        s1 = np.exp(_uniform(math.log(0.2), math.log(2.0), raw[0]))
        ratio = np.exp(_uniform(math.log(1.001), math.log(3.0), raw[1]))
        if family == "geodesic":
            head, ends = (), (0.0, math.pi)
        else:
            phi = _uniform(0.1, math.pi / 2 - 0.02, raw[2])
            head, ends = (phi,), (math.pi / 2 - phi, math.pi / 2 + phi)
        beta1, beta2 = (_angle(raw[at], raw[at + 1], *ends) for at in (base, base + 2))
        yield (*head, s1, beta1, s1 * ratio, beta2)


def _uniform(lo, hi, u):
    """``rng.uniform(lo, hi)`` when u is the stream's next double."""
    return lo + (hi - lo) * u


def _angle(pick, u, lo, hi):
    """Angles in [lo, hi]: lo where ``pick`` is below 0.04, hi where it is
    below 0.08, and else ``_uniform(lo + 0.02, hi - 0.02, u)``."""
    inside = _uniform(lo + 0.02, hi - 0.02, u)
    return np.where(pick < 0.04, lo, np.where(pick < 0.08, hi, inside))
