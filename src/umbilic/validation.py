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

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .halfplane import Transversal, TransversalKind
from .leaves import _beyond_bound, _math_map

DEFAULT_TOL = 1e-9

_PIN_EPS = 1e-15  # |h| within this of the bound counts as exactly pinned
_WINDOW_NOTE = "window only: behavior outside the sampled interval is unchecked"


def lipschitz_profile(phi: float, h):
    """The strictly decreasing profile transform F(phi, .).

    F(phi, h) = ln[ (sin phi - h) / (h cos phi + sqrt(1 - h^2) sin phi) ]
    on |h| < sin phi, with F(pi/2, h) = -atanh(h).  Arguments at or beyond
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


def profile_inverse(phi: float, y):
    """Solve F(phi, h) = y for h in closed form.

    With h = -cos(beta), F = y reads -R cos(beta + delta) = sin(phi),
    where R e^{i delta} = 1 + e^{y + i phi}; so beta = arccos(-sin(phi) / R)
    - delta.  For y > 0 the factor e^y is divided out of 1 + e^{y + i phi},
    so only e^{-|y|} is ever formed and no finite y overflows.  The result
    is clipped to the band [-sin phi, sin phi].  ``y`` may be a float or a
    1-d array, whose elements are mapped through the float form by
    ``leaves._math_map``, so each keeps the bits of ``math``'s functions.
    """
    b = _check_phi(phi)
    if np.ndim(y):
        return _math_map(functools.partial(_inverse, phi, b), np.asarray(y, dtype=float))
    return _inverse(phi, b, y)


def _inverse(phi: float, b: float, y: float) -> float:
    """``profile_inverse`` of one float, with b = sin(phi)."""
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
    worst = float(np.max(np.abs(h), initial=0.0))
    if _beyond_bound(worst, b):
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


@dataclass(frozen=True, eq=False)
class Route:
    """Sampled curvature course along a transversal.

    ``t`` must be strictly increasing, over a finite span; ``h`` has
    matching length, as does the optional derivative track ``dh``; neither
    may hold nan.  ``tol`` must be positive and below ``tol_limit``.
    Curvature bound violations are reported by the validators rather than
    rejected here, so diagnostic routes stay representable.

    A route is a value: its columns are read-only copies of the arguments,
    so its verdict cannot change after it is built.  Routes compare and
    hash by identity.  ``validate_c0`` and ``validate_horocycle`` record
    whether it is valid, and ``_is_valid`` answers from that record, so a
    route is judged once.  A route built by ``dataclasses.replace``,
    ``copy`` or ``pickle`` goes through the constructor again and starts
    with nothing recorded.
    """

    transversal: Transversal
    t: np.ndarray
    h: np.ndarray
    dh: np.ndarray | None = None
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        t = np.array(self.t, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise DomainError("t must be a nonempty 1-d array")
        if not np.all(t[1:] > t[:-1]):
            raise DomainError("t must be strictly increasing")
        first, last = float(t[0]), float(t[-1])
        if not math.isfinite(last - first):
            raise DomainError(f"t must span a finite length, got [{first!r}, {last!r}]")
        columns = {"t": t}
        for name in ("h", "dh") if self.dh is not None else ("h",):
            track = columns[name] = np.array(getattr(self, name), dtype=float)
            if track.shape != t.shape:
                raise DomainError(f"{name} has shape {track.shape}, expected {t.shape}")
            if np.isnan(track).any():
                raise DomainError(f"{name} must not contain nan")
        limit = tol_limit(self.transversal)
        if not 0 < self.tol < limit:
            raise DomainError(f"tol must lie in (0, {limit!r}), got {self.tol!r}")
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        self._record(None)

    def __reduce__(self):
        """Copies and pickles are built again, with nothing recorded."""
        return Route, (self.transversal, self.t, self.h, self.dh, self.tol)

    def _record(self, valid: bool | None) -> None:
        """Record whether the route is valid (None: not judged yet)."""
        object.__setattr__(self, "_valid", valid)

    @property
    def n(self) -> int:
        return int(self.t.size)


def tol_limit(transversal: Transversal) -> float:
    """The exclusive upper limit on a route tolerance.

    On a geodesic or hypercycle it is the curvature bound: at or above it
    the pinned-low and pinned-high bands of ``_classify_samples``
    overlap, and at twice the bound every sample is a pinned low, so
    every route would pass.  Horocycle routes have no limit but
    finiteness.
    """
    if transversal.kind == TransversalKind.HOROCYCLE:
        return math.inf
    return transversal.curvature_bound


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


#: The violation kinds, in the order of their codes in ``Violations.kind``.
VIOLATION_KINDS = ("bound", "zone", "pair", "pointwise")
_BOUND, _ZONE, _PAIR, _POINTWISE = range(len(VIOLATION_KINDS))


class _RowTable(Sequence):
    """Read-only numpy columns of one length, one per field of the rows
    the static method ``_row`` builds, in its order (it looks the row
    class up when called): a ``kind`` column of int8 codes into
    ``_kinds``, and float columns.

    It reads as the tuple of its rows.  A row is built only when it is
    indexed or iterated; ``len`` and truth value read the columns, and
    ``==``, ``hash`` and ``repr`` are the tuple's.  A nan comes back as
    ``math.nan`` itself, as the producers wrote it, so rows compare equal
    as their objects did.
    """

    __slots__ = ()
    _kinds: tuple[str, ...]

    def __init__(self, *columns) -> None:
        for name, column in zip(self.__slots__, columns):
            column = np.asarray(column, dtype=np.int8 if name == "kind" else float)
            column.flags.writeable = False
            setattr(self, name, column)

    @classmethod
    def of(cls, rows):
        """The columns of a sequence of rows."""
        rows = list(rows)
        return cls(*(
            [cls._kinds.index(r.kind) for r in rows] if name == "kind"
            else [getattr(r, name) for r in rows]
            for name in cls.__slots__
        ))

    @property
    def columns(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __len__(self) -> int:
        return self.kind.size

    def __iter__(self):
        return map(self._row, *(
            map(self._kinds.__getitem__, column.tolist()) if name == "kind"
            else [math.nan if x != x else x for x in column.tolist()]
            for name, column in zip(self.__slots__, self.columns)
        ))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return type(self)(*(c[index] for c in self.columns))
        i = range(len(self))[index]
        return next(iter(self[i : i + 1]))

    def __eq__(self, other):
        if isinstance(other, (tuple, _RowTable)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class Violations(_RowTable):
    """A verdict's violations as four columns (see ``_RowTable``): ``kind``
    (codes into ``VIOLATION_KINDS``), ``t1``, ``t2`` (nan where missing)
    and ``slack``."""

    __slots__ = ("kind", "t1", "t2", "slack")
    _kinds = VIOLATION_KINDS

    @staticmethod
    def _row(*fields):
        return Violation(*fields)


_NO_VIOLATIONS = Violations(*np.empty((4, 0)))


@dataclass(frozen=True)
class Verdict:
    valid: bool
    zones: Zones
    worst_slack: float
    violations: Sequence[Violation]
    notes: tuple[str, ...]
    mode: str


def _classify_samples(h: np.ndarray, bound: float, tol: float):
    """Boolean masks (bad, low, high, interior) for the sample levels."""
    bad = _beyond_bound(h, bound, tol)
    low = (~bad) & (np.abs(h + bound) <= tol)
    high = (~bad) & (np.abs(h - bound) <= tol)
    interior = ~(bad | low | high)
    return bad, low, high, interior


def _structure_columns(route: Route, bound: float):
    """Bound and zone-pattern violations shared by both validators.

    Returns (parts, usable, zones) where ``parts`` lists the violation
    columns of each nonempty kind (see ``_part``), bound violations first,
    ``usable`` masks the samples that take part in the interior checks and
    ``zones`` bounds the leading run of lows (samples before k0) and the
    trailing run of highs (samples after k1).
    """
    t, h, tol = route.t, route.h, route.tol
    bad, low, high, interior = _classify_samples(h, bound, tol)
    if interior.all():  # no pin and nothing beyond the band
        return [], interior, Zones(-math.inf, math.inf)
    parts = []
    i = np.flatnonzero(bad)
    if i.size:
        parts.append(_part(_BOUND, t[i], math.nan, bound - np.abs(h[i])))
    # Leading run of lows is legal; any low after the first non-low sample
    # forces an intersection with everything from that sample on.
    not_low = np.flatnonzero(~low)
    k0 = int(not_low[0]) if not_low.size else t.size
    j = np.flatnonzero(low[k0:]) + k0
    if j.size:
        parts.append(_part(_ZONE, t[k0], t[j], -math.inf))
    # Mirror image for the trailing run of highs.
    not_high = np.flatnonzero(~high)
    k1 = int(not_high[-1]) if not_high.size else -1
    i = np.flatnonzero(high[: max(k1, 0)])
    if i.size:
        parts.append(_part(_ZONE, t[i], t[k1], -math.inf))
    zones = Zones(
        float(t[k0 - 1]) if k0 > 0 else -math.inf,
        float(t[k1 + 1]) if k1 < t.size - 1 else math.inf,
    )
    return parts, interior, zones


def _part(kind: int, *columns) -> tuple:
    """Violation columns (kind, t1, t2, slack) of one kind, with scalar
    columns repeated to the length of the array ones."""
    n = max(map(np.size, columns))
    return (np.full(n, kind, dtype=np.int8), *(c if np.ndim(c) else np.full(n, c) for c in columns))


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

    Prefix scans bound every column of pairs, and only the candidates,
    the pairs the bounds cannot clear of the worst slack or of -tol, are
    evaluated by the formula, see ``_pair_scan``: found in
    O((n + candidates) log n) by ``_candidates``, which leaves a column
    whose every row is a candidate to be evaluated whole.  So it runs in O(n) for
    generic routes and O(n log n) where the columns tie within rounding
    but hold one candidate each (``constant`` and ``totally_geodesic``
    on uniform grids); the pencil, whose every pair ties within
    rounding, stays O(n^2).  No pair is evaluated for the two-sided note
    unless a bound shows that it can fail.  Ordering its k violations,
    which stay columns, adds O(k log k) numpy.  The verdict is
    bit-identical to evaluating every pair by the formula above.
    """
    parts, zones, tt, ff, bound = _c0_inputs(route)
    pairs, worst, worst_two_sided, two_sided_at = _pair_scan(tt, ff, bound, route.tol)
    parts += pairs

    notes = [_WINDOW_NOTE, "one-sided growth condition is the normative check"]
    if worst_two_sided is not None and worst_two_sided < -route.tol:
        notes.append(
            "two-sided Lipschitz estimate fails by "
            f"{-worst_two_sided:.6g} at pair {two_sided_at}; this does not "
            "affect validity"
        )
    elif worst_two_sided is None or math.isfinite(worst_two_sided):
        notes.append("two-sided Lipschitz estimate also holds on this window")
    verdict = _verdict("c0", zones, worst, parts, notes)
    route._record(verdict.valid)
    return verdict


def _c0_inputs(route: Route):
    """What ``validate_c0`` and ``_is_valid`` check, for a geodesic or
    hypercycle route: the structure violations and zones
    (``_structure_columns``), the interior samples' t and F, and the rate
    bound L."""
    phi_eff = _effective_phi(route.transversal)
    bound = route.transversal.curvature_bound
    parts, interior, zones = _structure_columns(route, bound)
    ff = lipschitz_profile(phi_eff, route.h[interior])
    return parts, zones, route.t[interior], ff, bound


def _verdict(mode: str, zones: Zones, worst: float, parts: list, notes) -> Verdict:
    """The validators' shared tail: the violation columns of ``parts`` in
    (t1, t2) order, with a missing t2 sorting as t1, by a stable sort, and
    valid when there are none.  The worst slack is
    ``min([worst, *slacks])`` over the slacks in that order: nan only when
    ``worst`` is, and the first of equal minima (0.0 and -0.0 are equal)."""
    violations = _NO_VIOLATIONS
    if parts:
        kind, t1, t2, slack = (np.concatenate(c) for c in zip(*parts))
        order = np.lexsort((np.where(np.isnan(t2), t1, t2), t1))
        violations = Violations(kind[order], t1[order], t2[order], slack[order])
        below = violations.slack[violations.slack < worst]
        if below.size:
            worst = float(below[np.argmax(below == below.min())])
    return Verdict(
        valid=not parts,
        zones=zones,
        worst_slack=worst,
        violations=violations,
        notes=tuple(notes),
        mode=mode,
    )


@np.errstate(invalid="ignore")  # an infinite F makes inf - inf: nan bounds and slacks
def _pair_scan(tt: np.ndarray, ff: np.ndarray, L: float, tol: float):
    """The pair checks of ``validate_c0`` by prefix scans.

    Returns a list of the pair violations' columns (see ``_part``), empty
    when there are none, the worst pair slack, the worst two-sided slack
    ``L (t2 - t1) + (F2 - F1)`` and the first pair in (t1, t2) order that
    attains it.  The two-sided slack is ``None`` (and its pair too) when
    the bounds alone prove that it holds, and ``inf`` when there are no
    pairs.

    The slack of pair (i, j) is g_i - g_j with g = F - L t, up to
    rounding, so a running minimum of g bounds every column j from below
    in O(n).  The two-sided slack is the one-sided slack of -F, so
    ``_one_sided_bounds`` on -F bounds its columns the same way.  The two
    ways of rounding differ by at most eps (6A + 4B) with A = L max|t|
    and B = max|F| (plus underflow, which ``tiny`` covers), well inside
    ``guard``.  So a column whose bound is at least ``guard - tol`` holds
    no pair below -tol, a column more than twice the guard above the best
    bound cannot hold the minimum, and in the columns left only the rows
    i with g_i <= g_j + c can hold a slack below a threshold c that has
    the guard added: the candidates (the threshold's own rounding, at
    most eps (A + B), stays inside the guard's margin).  Each search
    walks ``_pair_chunks`` over its columns and c, and evaluates the
    pairwise formula on those chunks alone, so every float matches
    evaluating all n^2 / 2 pairs:

    * the one-sided search, over the columns that can fail or hold the
      minimum, with c the larger of ``guard - tol`` and the best bound
      plus twice the guard, folds each chunk's minimum into the worst
      slack and lists the slacks below -tol;
    * the two-sided search, over the columns within twice the guard of
      its best bound, with c that bound plus twice the guard, keeps the
      first minimum.
      It runs only when some column could fail: with a finite guard
      every F is finite, and if every two-sided bound clears
      ``guard - tol`` the estimate holds, which is all its note says;
    * ``_judge``, over the columns that can fail, with c = guard - tol,
      stops at the first slack below -tol.

    An infinite F makes the guard infinite and some bounds nan; then c is
    not finite and every column is evaluated whole.  A one-sided column
    whose bound is +inf lists nothing, since each of its slacks is +inf
    too.  A slack that is nan (inf - inf) is skipped one pair at a time,
    as the pairwise definition does: the worst slack's fold keeps its
    value at a nan minimum, and the two-sided search skips the nans.

    Cost: O((n + candidates) log n), see ``_candidates``; a column
    whose every row is a candidate is evaluated whole, which its
    candidates pay for.
    """
    if tt.size < 2:
        return [], math.inf, math.inf, None
    guard, g, low, fail = _one_sided_bounds(tt, ff, L, tol)
    top = low.min() + 2 * guard
    worst = math.inf
    found = []
    for i, j in _pair_chunks(g, fail | (low <= top), max(top, guard - tol)):
        rise, df = _pairs(tt, ff, L, i, j)
        slack = np.subtract(rise, df, out=rise)
        least = float(slack.min())
        worst = min(worst, least)
        if not least >= -tol:  # a nan minimum too: list what is below -tol
            k = np.flatnonzero(slack < -tol)
            if k.size:
                found.append((*_pair_at(i, j, k), slack[k]))
    pairs = []
    if found:
        i, j, s = (np.concatenate(x) for x in zip(*found))
        pairs.append(_part(_PAIR, tt[i], tt[j], s))
    _, g2, low2, fail2 = _one_sided_bounds(tt, -ff, L, tol)
    if math.isfinite(guard) and not fail2.any():
        return pairs, worst, None, None
    best = (math.inf, 0, 0)
    top = low2.min() + 2 * guard
    for i, j in _pair_chunks(g2, ~(low2 > top), top):
        if not isinstance(i, slice):
            order = np.lexsort((j, i))  # argmin then picks the first pair
            i, j = i[order], j[order]
        rise, df = _pairs(tt, ff, L, i, j)
        other = np.add(rise, df, out=rise)
        k = int(other.argmin())
        if other[k] != other[k]:  # argmin picks a nan first: skip the nans
            kept = np.flatnonzero(other == other)
            if not kept.size:
                continue
            k = int(kept[other[kept].argmin()])
        best = min(best, (float(other[k]), *map(int, _pair_at(i, j, k))))
    worst_two_sided, a, b = best
    return pairs, worst, worst_two_sided, (float(tt[a]), float(tt[b]))


def _one_sided_bounds(tt: np.ndarray, ff: np.ndarray, L: float, tol: float):
    """``_pair_scan``'s rounding guard, g = F - L t, its one-sided column
    bounds ``low`` (column j's bound at index j - 1) and the ``fail`` mask
    of the columns whose bound comes within the guard of -tol, the only
    ones that can hold a pair below -tol.  Call under
    ``np.errstate(invalid="ignore")``: an infinite F makes inf - inf."""
    g = ff - L * tt
    scale = L * np.abs(tt).max() + np.abs(ff).max()
    guard = 16 * np.finfo(float).eps * scale + np.finfo(float).tiny
    low = np.minimum.accumulate(g)[:-1] - g[1:]
    # ~(low >= ...) keeps a column whose bound is nan, which only a nan F makes.
    return guard, g, low, ~(low >= guard - tol)


def _pair_chunks(g: np.ndarray, cols: np.ndarray, c: float):
    """The pairs of ``_pair_scan``'s searches in chunks (i, j): the
    candidates of the columns in the mask ``cols`` under threshold c (see
    ``_candidates``) as one chunk of index arrays, if there are any, then
    each column left to the loop whole, as ``(slice(j), j)``.  A threshold
    that is not finite, from an infinite guard, sends every column whole."""
    if math.isfinite(c):
        (i, j), cols = _candidates(g, cols, c)
        if i.size:
            yield i, j
    for j in (np.flatnonzero(cols) + 1).tolist():
        yield slice(j), j


def _pair_at(i, j, k):
    """The rows and columns at positions k of a chunk (i, j) of
    ``_pair_chunks``."""
    if isinstance(i, slice):
        return k, np.full(np.shape(k), j)
    return i[k], j[k]


_NO_PAIRS = (np.empty(0, np.intp), np.empty(0, np.intp))


def _candidates(g: np.ndarray, cols: np.ndarray, c: float):
    """The candidate pairs of the columns in the mask ``cols`` (column j
    at index j - 1): the rows i < j with g_i <= g_j + c, as index arrays
    (i, j) in no set order, and the mask of the columns left to the
    column loop, which evaluates them whole.

    A range-minimum descent finds them: a pyramid holds the minimum of g
    over each aligned block of 2^k rows, and level by level, from the
    largest block down to single rows, every column keeps the blocks of
    [0, j) whose minimum is within its threshold, split in halves on the
    next level.  So each level costs O(n) for the blocks [0, j) adds
    there plus its frontier, which holds no more blocks than candidates:
    O((n + candidates) log n) in all.  Columns stay with the loop where
    that is cheaper: all of them when there are no more than three a
    level (a column costs the loop about a third of what a level costs
    the descent), and a column whose every row is a candidate (the prefix
    maximum of g is within its threshold), as every pencil column is.
    If the frontier outgrows four blocks a row (plus 2^16) the descent
    gives up and leaves every column to the loop, so its memory stays
    O(n).
    """
    levels = cols.size.bit_length()
    if np.count_nonzero(cols) <= 3 * levels:
        return _NO_PAIRS, cols
    j = np.nonzero(cols)[0] + 1
    tau = g[j] + c
    loop = np.maximum.accumulate(g)[j - 1] <= tau
    at = np.nonzero(~loop)[0]  # the descending columns' positions in j
    col, block = _NO_PAIRS
    mins = [g]
    for _ in range(levels - 1 if at.size else 0):
        m = mins[-1]
        mins.append(np.minimum(m[: m.size - 1 : 2], m[1::2]))
    for k in range(len(mins) - 1, -1, -1):
        # The halves of the blocks kept, and the block of [0, j) at this
        # level where j has bit k set: rows [(j >> k) - 1, j >> k) * 2^k.
        start = at[(j[at] >> k) & 1 == 1]
        col = np.concatenate((np.repeat(col, 2), start))
        block = np.concatenate(((2 * block[:, None] + (0, 1)).ravel(), (j[start] >> k) - 1))
        kept = mins[k][block] <= tau[col]
        col, block = col[kept], block[kept]
        if col.size > 4 * g.size + 2**16:
            return _NO_PAIRS, cols
    rest = np.zeros_like(cols)
    rest[j[loop] - 1] = True
    return (block, j[col]), rest


def _pairs(tt: np.ndarray, ff: np.ndarray, L: float, i, j):
    """The pair slacks of rows i and columns j (index arrays, or a slice
    ``slice(j)`` and an int for the whole column j) as their rise
    ``L (t_j - t_i)`` and growth ``F_j - F_i``: the one-sided slacks are
    rise - growth, the two-sided ones rise + growth.  The rise is a new
    array, which the caller may overwrite."""
    rise = tt[j] - tt[i]
    rise *= L
    return rise, ff[j] - ff[i]


def _is_valid(route: Route) -> bool:
    """``validate(route).valid``, bit for bit, without the verdict: the
    answer the route has recorded (see ``Route``), else ``_judge``'s,
    which it records."""
    if route._valid is None:
        route._record(_judge(route))
    return route._valid


def _judge(route: Route) -> bool:
    """``validate(route).valid``, bit for bit, computed afresh.

    On a geodesic or hypercycle it runs ``validate_c0``'s structure checks
    and ``_pair_scan``'s bounds.  A column whose bound is below
    ``-tol - guard`` proves the route invalid with no pair evaluated: the
    bound is g_i - g_j for the row i that holds the column's prefix
    minimum, and by ``_pair_scan``'s rounding argument the pairwise
    formula's slack of (i, j) differs from it by at most eps (6A + 4B),
    inside the guard, so that pair's slack is below -tol.  Otherwise it
    walks ``_pair_chunks`` over the columns whose bound can fail
    (``fail``) with the threshold ``guard - tol``, see ``_pair_scan``,
    and returns at the first slack below -tol.  So it costs O(n) on a
    valid route unless some of its pairs come within the rounding guard
    of -tol, also where the columns tie and ``validate_c0`` searches them
    for the worst slack, O(n) on a route that a bound proves invalid, and
    O((n + candidates) log n) at most.  A horocycle route's verdict is
    O(n) and is taken whole.
    """
    if route.transversal.kind == TransversalKind.HOROCYCLE:
        return validate_horocycle(route).valid
    parts, _, tt, ff, bound = _c0_inputs(route)
    if parts or tt.size < 2:
        return not parts
    with np.errstate(invalid="ignore"):
        guard, g, low, fail = _one_sided_bounds(tt, ff, bound, route.tol)
        if (low < -route.tol - guard).any():  # False on a nan bound or an infinite guard
            return False
        return not any(
            (np.subtract(*_pairs(tt, ff, bound, i, j)) < -route.tol).any()
            for i, j in _pair_chunks(g, fail, guard - route.tol)
        )


def validate_c1(route: Route) -> Verdict:
    """Pointwise derivative check: dh/dt >= min_curvature_rate(phi, h) - tol
    at every sample off the pins.

    Uses the supplied derivative track when present, otherwise central
    differences (one-sided at the ends).
    """
    phi_eff = _effective_phi(route.transversal)
    bound = route.transversal.curvature_bound
    tol = route.tol
    parts, _, zones = _structure_columns(route, bound)
    if route.dh is not None:
        hp = route.dh
        source = "supplied derivative track"
    elif route.n >= 2:
        # Levels near the float limit, or spacings near 0, overflow the
        # differences, and a spacing of one subnormal step divides by 0: a
        # slope past the float range reads +-inf, and one where two such
        # terms cancel reads nan, which checks nothing.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            hp = np.gradient(route.h, route.t)
        source = "central finite differences"
    else:
        hp = np.zeros(1)
        source = "single sample, derivative taken as 0"

    rhs = min_curvature_rate(phi_eff, np.clip(route.h, -bound, bound))
    slack = hp - rhs
    ok = ~_beyond_bound(route.h, bound, tol) & ~np.isnan(slack)
    i = np.flatnonzero(ok & (slack < -tol))
    if i.size:
        parts.append(_part(_POINTWISE, route.t[i], math.nan, slack[i]))
    worst = float(slack[ok].min()) if np.any(ok) else math.inf
    notes = (_WINDOW_NOTE, f"derivatives: {source}")
    return _verdict("c1", zones, worst, parts, notes)


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
    i = np.flatnonzero(slack < -route.tol)
    parts = [_part(_POINTWISE, route.t[i], math.nan, slack[i])] if i.size else []
    notes = (
        _WINDOW_NOTE,
        "only the zero course is realizable over a horizontal transversal",
    )
    zones = Zones(-math.inf, math.inf)
    verdict = _verdict("horocycle", zones, float(slack.min()), parts, notes)
    route._record(verdict.valid)
    return verdict
