"""Umbilic leaves orthogonal to a canonical transversal.

A leaf is the trace in the half-plane of a complete umbilic curve: either
a Euclidean circle reaching the ideal boundary, or a straight line.  Every
leaf carries the angle ``beta`` it makes with the boundary, measured in
[0, pi], and the signed mean curvature ``h = -cos(beta)`` with respect to
the upward normal.  ``beta = pi/2`` is the totally geodesic case,
``beta in {0, pi}`` the horospherical one, everything else an equidistant
curve (hypersphere).

Circles entirely inside the open half-plane (metric circles) are not
leaves and are rejected at construction time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NotALeafError
from .halfplane import _check_ray_angle

#: Carrier contacts with gap below this are classified as tangencies.
TANGENCY_TOL = 1e-9

#: Points with |y| at or below this sit on the ideal boundary.
BOUNDARY_TOL = 1e-9

#: Boundary angles within this of 0, pi/2 or pi take that leaf kind.
_KIND_TOL = 1e-12

#: A leaf on the phi-ray with sin phi + cos beta at or below this is a
#: line (see ``_is_line``).
_LINE_TOL = 1e-12

_ANGLE_MATCH_TOL = 1e-6

#: Levels within this beyond the curvature bound still lie in the
#: admissible band: |h| <= bound, or |cos beta| <= sin phi on the phi-ray.
_BAND_TOL = 1e-12


class LeafKind(str, Enum):
    HOROSPHERE = "horosphere"
    HYPERSPHERE = "hypersphere"
    TOTALLY_GEODESIC = "totally_geodesic"


def classify_leaf(beta: float) -> LeafKind:
    """Classify a boundary angle: horosphere at 0 or pi, totally geodesic
    at pi/2, hypersphere in between."""
    _check_beta(beta)
    return LeafKind(_leaf_kinds(beta))


_KIND_VALUES = np.array([kind.value for kind in LeafKind], dtype=object)


def _leaf_kinds(beta):
    """The ``LeafKind`` value of a boundary angle in [0, pi], or an object
    array of them for an array (see ``classify_leaf``)."""
    horosphere = (beta <= _KIND_TOL) | (beta >= math.pi - _KIND_TOL)
    flat = np.abs(beta - math.pi / 2) <= _KIND_TOL
    return _KIND_VALUES[np.where(horosphere, 0, np.where(flat, 2, 1))]


def equidistant_offset(beta: float) -> float:
    """Signed distance from a leaf with boundary angle beta to the geodesic
    sharing its ideal endpoints.

    Satisfies cos(beta) = tanh(offset) and cot(beta) = sinh(offset); the
    offset is positive on the side the leaf bends away from.  Horospherical
    angles return +/-inf as the divergence signal.  Where cot beta
    overflows (sin beta subnormal, so cos beta is 1) the offset is still
    finite, up to about 745.13: asinh x = ln 2 + ln x, its own form for
    x past 2^28, with ln x = -ln sin beta.
    """
    _check_beta(beta)
    if beta <= 0.0:
        return math.inf
    if beta >= math.pi:
        return -math.inf
    cot = math.cos(beta) / math.sin(beta)
    if math.isinf(cot):
        return math.log(2.0) - math.log(math.sin(beta))
    return math.asinh(cot)


def _check_beta(beta: float) -> None:
    if not 0.0 <= beta <= math.pi:
        raise DomainError(f"boundary angle must lie in [0, pi], got {beta!r}")


@dataclass(frozen=True)
class Circle:
    """Euclidean circle carrier.  Center may lie on or below the boundary;
    every field is finite."""

    cx: float
    cy: float
    radius: float

    def __post_init__(self) -> None:
        if not 0 < self.radius < math.inf:
            raise DomainError(
                f"circle radius must be positive and finite, got {self.radius!r}"
            )
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)):
            raise DomainError(f"circle center must be finite, got {(self.cx, self.cy)!r}")


@dataclass(frozen=True)
class Line:
    """Straight carrier through (x0, y0) with unit direction (dx, dy), dy >= 0;
    every field is finite."""

    x0: float
    y0: float
    dx: float
    dy: float

    def __post_init__(self) -> None:
        norm = math.hypot(self.dx, self.dy)
        if not 0 < norm < math.inf:
            raise DomainError("line direction must be nonzero and finite")
        if not (math.isfinite(self.x0) and math.isfinite(self.y0)):
            raise DomainError(f"line point must be finite, got {(self.x0, self.y0)!r}")
        dx, dy = self.dx / norm, self.dy / norm
        if dy < 0 or (dy == 0 and dx < 0):
            dx, dy = -dx, -dy
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dy", dy)


@dataclass(frozen=True)
class Leaf:
    """A leaf: carrier shape plus its boundary angle."""

    shape: Circle | Line
    beta: float

    def __post_init__(self) -> None:
        _check_beta(self.beta)
        if isinstance(self.shape, Circle):
            c = self.shape
            if c.cy - c.radius > BOUNDARY_TOL:
                raise NotALeafError(
                    "circle lies inside the half-plane (a metric circle, not a leaf)"
                )
            if c.cy + c.radius < -BOUNDARY_TOL:
                raise NotALeafError("circle has no points in the upper half-plane")
            # beta must match the carrier: cos(beta) = cy / radius.
            if abs(c.cy - c.radius * math.cos(self.beta)) > _ANGLE_MATCH_TOL * max(
                1.0, c.radius
            ):
                raise NotALeafError(
                    f"angle {self.beta!r} does not match circle center height {c.cy!r}"
                )
        else:
            ln = self.shape
            direction = math.atan2(ln.dy, ln.dx)  # in [0, pi) after normalization
            mismatch = abs(direction - self.beta % math.pi)
            mismatch = min(mismatch, abs(mismatch - math.pi))
            if mismatch > _ANGLE_MATCH_TOL:
                raise NotALeafError(
                    f"angle {self.beta!r} does not match line direction {direction!r}"
                )

    @property
    def h(self) -> float:
        """Signed mean curvature, -cos(beta)."""
        return -math.cos(self.beta)

    @property
    def kind(self) -> LeafKind:
        return classify_leaf(self.beta)


def _refused_leaves(line, columns, beta, cbeta, unit):
    """Which rows of leaf columns ``Circle``, ``Line`` and ``Leaf`` refuse,
    by their own tests.  ``columns`` are (cx, cy, radius, x0, y0, dx, dy),
    the circle fields on the rows not ``line`` and the line fields on the
    others, whose direction is ``unit`` = (dx, dy); ``beta``, ``cbeta``
    are each leaf's angle and its cosine.  numpy applies the tests' IEEE
    operations, so the answer is theirs."""
    cx, cy, r, x0, y0 = columns[:5]
    with np.errstate(invalid="ignore", over="ignore"):
        circle_refused = (
            ~(np.isfinite(cx) & np.isfinite(cy) & (0 < r) & (r < math.inf))
            | (cy - r > BOUNDARY_TOL)
            | (cy + r < -BOUNDARY_TOL)
            | (np.abs(cy - r * cbeta) > _ANGLE_MATCH_TOL * np.maximum(1.0, r))
        )
        if not line.any():
            return circle_refused
        mismatch = np.abs(math.atan2(unit[1], unit[0]) - np.fmod(beta, math.pi))
        line_refused = ~(np.isfinite(x0) & np.isfinite(y0)) | (
            np.minimum(mismatch, np.abs(mismatch - math.pi)) > _ANGLE_MATCH_TOL
        )
    return np.where(line, line_refused, circle_refused)


@dataclass(frozen=True)
class IdealEndpoints:
    """Boundary trace of a leaf, ordered left to right.  Lines through
    infinity report -inf and/or +inf."""

    a_minus: float
    a_plus: float


def ideal_endpoints(leaf: Leaf) -> IdealEndpoints:
    """Where the leaf meets the ideal boundary."""
    s = leaf.shape
    if isinstance(s, Circle):
        ends = _circle_ends(s.cx, s.cy, s.radius)
    else:
        ends = _line_ends(s.x0, s.y0, s.dx, s.dy)
    return IdealEndpoints(*map(float, ends))


def _circle_ends(cx, cy, radius):
    """``(a_minus, a_plus)`` of circle carriers, for floats or arrays: cx
    -+ the half chord, or cx twice where a circle only touches or misses
    the boundary line (a tangent circle's endpoints collapse onto the
    tangency point)."""
    root = _half_chord(cy, radius)
    touching = np.isnan(root)
    with np.errstate(over="ignore"):
        return np.where(touching, cx, cx - root), np.where(touching, cx, cx + root)


def _line_ends(x0, y0, dx, dy):
    """``(a_minus, a_plus)`` of line carriers through (x0, y0) with unit
    direction (dx, dy), dy >= 0, for floats or arrays; a line through
    infinity reports -inf and/or +inf."""
    with np.errstate(all="ignore"):
        crossing = x0 - np.divide(y0 * dx, dy)
    flat, back = np.equal(dy, 0.0), np.less(dx, 0.0)
    return np.where(flat | back, -math.inf, crossing), np.where(flat | ~back, math.inf, crossing)


def _half_chord(cy, radius):
    """Half the chord a circle cuts from the boundary line, sqrt(r^2 - cy^2),
    or nan where it only touches or misses the line, for floats or arrays.
    Taken at each circle's own power-of-two scale, so it neither overflows
    nor underflows; frexp, ldexp and sqrt are exact or correctly rounded,
    so numpy gives ``math``'s bits."""
    cy = np.abs(cy)
    e = np.frexp(radius)[1]
    with np.errstate(invalid="ignore", over="ignore"):
        r, c = np.ldexp(radius, -e), np.ldexp(cy, -e)
        root = np.ldexp(np.sqrt((r - c) * (r + c)), e)
    return np.where(radius > cy, root, math.nan)


def leaf_orthogonal_to_geodesic(s: float, beta: float) -> Leaf:
    """The leaf crossing the vertical axis orthogonally at height s with
    boundary angle beta.

    For beta < pi the carrier is the circle of radius ``s / (1 + cos beta)``
    centered at ``(0, s cos beta / (1 + cos beta))``; its apex is exactly
    (0, s) and its endpoints are ``+-s tan(beta/2)``.  beta = pi degenerates
    into the horizontal line at height s.
    """
    if not s > 0:
        raise DomainError(f"crossing height must be positive, got {s!r}")
    _check_beta(beta)
    cbeta = math.cos(beta)
    if _is_line(cbeta):
        return Leaf(Line(0.0, s, 1.0, 0.0), math.pi)
    return Leaf(Circle(*_circle_carrier(s, cbeta)), beta)


def leaf_orthogonal_to_hypercycle(phi: float, s: float, beta: float) -> Leaf:
    """The leaf crossing the canonical phi-ray orthogonally at distance s
    from the origin, with boundary angle beta.

    Orthogonality to the ray forces ``|cos beta| <= sin phi``, i.e.
    beta in [pi/2 - phi, pi/2 + phi].  Inside that range the carrier is
    the circle of radius ``s sin phi / (sin phi + cos beta)`` centered at
    ``(s cos beta / (sin phi + cos beta)) (cos phi, sin phi)``; its
    endpoints are ``s cos(phi + beta) / (sin phi + cos beta)`` (never
    positive) and ``s cos(phi - beta) / (sin phi + cos beta)`` (never
    negative).  At the closed upper end
    beta = pi/2 + phi the carrier degenerates into the line through
    ``s (cos phi, sin phi)`` with direction ``(-sin phi, cos phi)``,
    crossing the boundary at ``s / cos phi``.
    """
    _check_ray_angle(phi)
    if not s > 0:
        raise DomainError(f"crossing distance must be positive, got {s!r}")
    sphi, cphi = math.sin(phi), math.cos(phi)
    cbeta = _admissible_cos(phi, sphi, beta)
    if _is_line(cbeta, sphi):
        return Leaf(Line(s * cphi, s * sphi, -sphi, cphi), beta)
    return Leaf(Circle(*_circle_carrier(s, cbeta, (sphi, cphi))), beta)


def _is_line(cbeta, sphi=None):
    """Whether the leaf with cos beta = ``cbeta`` is a line, for a float or
    an array: where 1 + cos beta rounds to 0 on the geodesic (``sphi``
    None), and where sin phi + cos beta is at most ``_LINE_TOL`` on the
    phi-ray with sin phi = ``sphi``.  The one line rule: the constructors,
    the leaf columns and the pair slacks all take it, so the predicates
    and the contact oracle agree on which leaves are lines.  On the
    geodesic it takes in every beta within about 1.05e-8 of pi, where a
    circle's radius s / (1 + cos beta) would divide by 0."""
    if sphi is None:
        return 1.0 + cbeta <= 0.0
    return sphi + cbeta <= _LINE_TOL


def _beyond_bound(level, bound: float, tol: float = _BAND_TOL):
    """Whether ``level`` (a float, or each element of an array) lies
    beyond the band [-bound, bound] by more than ``tol``."""
    return abs(level) > bound + tol


def _admissible_cos(phi: float, sphi: float, beta: float) -> float:
    """cos beta, once beta is checked to be admissible on the phi-ray
    (sin phi = ``sphi``): ``|cos beta| <= sin phi``, see ``_beyond_bound``."""
    _check_beta(beta)
    cbeta = math.cos(beta)
    if _beyond_bound(cbeta, sphi):
        raise DomainError(
            f"no leaf with angle {beta!r} crosses the phi={phi!r} ray orthogonally"
        )
    return cbeta


def _circle_carrier(s, cbeta, ray=None):
    """``(cx, cy, radius)`` of the carrier through s with cos beta = ``cbeta``
    on the geodesic (``ray`` None) or the ray whose ``ray[:2]`` is
    (sin phi, cos phi), for floats or arrays.  Only arithmetic: the caller
    picks the trig source (see ``_math_map``)."""
    if ray is None:
        radius = s / (1.0 + cbeta)
        return 0.0, s - radius, radius
    sphi, cphi = ray[:2]
    den = sphi + cbeta
    scale = s * cbeta / den
    return scale * cphi, scale * sphi, s * sphi / den


def _ray(phi=None):
    """``(sin phi, cos phi, norm)`` by ``math``, norm the ``math.hypot`` of
    the first two, for a float or an array, or None on the geodesic
    (``phi`` None)."""
    if phi is None:
        return None
    sphi, cphi = _math_map(math.sin, phi), _math_map(math.cos, phi)
    return sphi, cphi, _math_map(math.hypot, sphi, cphi)


def _line_direction(ray=None):
    """The unit direction ``(dx, dy)`` that ``Line`` stores for the line
    leaves of a transversal: (1, 0) on the geodesic (``ray`` None), and
    (-sin phi, cos phi) divided by its norm on the ray (sin phi, cos phi,
    norm) = ``ray`` (cos phi > 0, so no sign flip), for floats or arrays.
    ``Line`` divides by ``math.hypot``, so the norm is ``_ray``'s where the
    bits must be the constructors'."""
    if ray is None:
        return 1.0, 0.0
    sphi, cphi, norm = ray
    return -sphi / norm, cphi / norm


def _orthogonal_leaves(s, cbeta, ray):
    """Columns ``(cx, cy, radius, x0, y0, dx, dy)`` of the leaves that
    ``leaf_orthogonal_to_geodesic`` (``ray`` None) or
    ``leaf_orthogonal_to_hypercycle`` on the ray (sin phi, cos phi, norm) =
    ``ray`` (see ``_ray``) builds through s with cos beta = ``cbeta``: the
    circles, nan on the line rows, and the lines, nan on the others.  A
    line runs through (0, s), or s (cos phi, sin phi), along
    ``_line_direction(ray)``.  A line whose s is not positive, which the
    constructors refuse, is nan too.

    Only arithmetic: with ``math``'s cos beta and ``_ray``'s values the
    columns are the constructors' bit for bit.
    """
    line = _is_line(cbeta, None if ray is None else ray[0])
    # A circle past the float range overflows to inf; ``_refused_leaves`` flags it.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        circle = tuple(np.where(line, math.nan, c) for c in _circle_carrier(s, cbeta, ray))
    line = np.isnan(circle[2])
    if not line.any():  # the common case, whose line columns are all nan
        return (*circle, *np.full((4, line.size), math.nan))
    point = (0.0, s) if ray is None else (s * ray[1], s * ray[0])
    line &= s > 0
    return (*circle, *(np.where(line, c, math.nan) for c in (*point, *_line_direction(ray))))


def _math_map(f, *xs):
    """``f`` from ``math`` on floats, or on the elements of 1-d arrays of
    one length, as numpy values.

    The trig-source rule: numpy's own cos, sin, tan, exp and hypot may
    differ from ``math``'s in the last bit, so every path whose bits are
    printed or pinned takes ``math``'s: the leaf constructors, the scalar
    predicates, ``foliation._slice_carriers`` and the contact kernel
    (``_hypot``).  The lemma sweep takes numpy's, whole columns at a time:
    it prints only counts of decisions, each at least ``TANGENCY_TOL`` or
    its slack margin from its threshold, far outside a last-bit change.
    The helpers both share take their trig values from the caller."""
    if np.ndim(xs[0]) == 0:
        return np.float64(f(*xs))
    return np.fromiter(map(f, *(x.tolist() for x in xs)), dtype=float, count=xs[0].size)


def disjoint_along_geodesic(s1: float, beta1: float, s2: float, beta2: float) -> bool:
    """Whether the axis-orthogonal leaves (s1, beta1) and (s2, beta2) with
    0 < s1 < s2 avoid each other in the open half-plane.

    Decided by comparing right ideal endpoints: disjoint iff
    ``s1 tan(beta1/2) <= s2 tan(beta2/2)``, equivalently
    ``cot(beta2/2) / cot(beta1/2) <= s2 / s1``.  A horizontal upper leaf
    (beta2 = pi) clears everything below it; a horizontal lower leaf
    (beta1 = pi) blocks every non-horizontal upper leaf; two tangent
    horospheres at the origin (beta1 = beta2 = 0) touch only at the
    boundary and count as disjoint.
    """
    if not 0.0 < s1 < s2:
        raise DomainError(f"need 0 < s1 < s2, got s1={s1!r}, s2={s2!r}")
    _check_beta(beta1)
    _check_beta(beta2)
    cbetas = math.cos(beta1), math.cos(beta2)
    tans = math.tan(beta1 / 2.0), math.tan(beta2 / 2.0)
    return _geodesic_slack(s1, s2, *cbetas, *tans) >= 0.0


def _geodesic_slack(s1, s2, cbeta1, cbeta2, tan1, tan2):
    """``s2 tan(beta2/2) - s1 tan(beta1/2)``, the gap between the right
    ideal endpoints, given cos beta1, cos beta2, tan(beta1/2) and
    tan(beta2/2) (``cbeta1``, ``cbeta2``, ``tan1``, ``tan2``); +inf for a
    horizontal upper leaf and -inf for a horizontal lower one.  The
    arguments may be floats or arrays; the result has their shape."""
    gap = s2 * tan2 - s1 * tan1
    slack = np.where(_is_line(cbeta2), math.inf, np.where(_is_line(cbeta1), -math.inf, gap))
    return slack if np.ndim(slack) else float(slack)


def disjoint_along_hypercycle(
    phi: float, s1: float, beta1: float, s2: float, beta2: float
) -> bool:
    """Whether two leaves orthogonal to the phi-ray, crossing it at
    0 < s1 < s2 with admissible angles beta1, beta2, avoid each other.

    Decided by comparing left ideal endpoints: disjoint iff
    ``a2- <= a1-`` where ``a- = s cos(phi + beta) / (sin phi + cos beta)``.
    The degenerate line leaf (beta = pi/2 + phi) is disjoint from another
    leaf exactly when that leaf is a line too; a circle leaf below a line
    leaf is always clear of it.
    """
    _check_ray_angle(phi)
    if not 0.0 < s1 < s2:
        raise DomainError(f"need 0 < s1 < s2, got s1={s1!r}, s2={s2!r}")
    sphi = math.sin(phi)
    cbeta1, cbeta2 = _admissible_cos(phi, sphi, beta1), _admissible_cos(phi, sphi, beta2)
    cos1, cos2 = math.cos(phi + beta1), math.cos(phi + beta2)
    return _hypercycle_gap(s1, s2, sphi, cbeta1, cbeta2, cos1, cos2) >= 0.0


def _hypercycle_gap(s1, s2, sphi, cbeta1, cbeta2, cos1, cos2):
    """``a1- - a2-``, the gap between the left ideal endpoints, given
    sin phi, cos beta1, cos beta2, cos(phi + beta1) and cos(phi + beta2)
    (``sphi``, ``cbeta1``, ``cbeta2``, ``cos1``, ``cos2``); +inf when the
    upper leaf is a line and -inf when only the lower one is; an endpoint
    past the float range reads +-inf.  The arguments may be floats or
    arrays; the result has their shape."""
    den1, den2 = sphi + cbeta1, sphi + cbeta2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gap = np.divide(s1 * cos1, den1) - np.divide(s2 * cos2, den2)
    line1, line2 = _is_line(cbeta1, sphi), _is_line(cbeta2, sphi)
    slack = np.where(line2, math.inf, np.where(line1, -math.inf, gap))
    return slack if np.ndim(slack) else float(slack)


@dataclass(frozen=True)
class CarrierContact:
    """Intersection data for two carriers.

    ``kind`` is one of ``none``, ``transverse``, ``tangent``,
    ``coincident``; ``points`` lists the contact points (empty for
    ``none`` and ``coincident``).
    """

    kind: str
    points: tuple[tuple[float, float], ...] = ()


#: The flagged contact kinds, by their codes in ``_carrier_contacts``'
#: ``kind`` column; -1 is ``none``.
CONTACT_KINDS = ("transverse", "tangent", "coincident")
_NONE, _TRANSVERSE, _TANGENT, _COINCIDENT = -1, 0, 1, 2
_KIND_NAMES = dict(enumerate(("none", *CONTACT_KINDS), start=_NONE))


def carrier_contact(leaf1: Leaf, leaf2: Leaf) -> CarrierContact:
    """Full contact analysis of two leaf carriers in the whole plane.

    This is the explicit geometric route, kept deliberately independent of
    the closed-form disjointness predicates so each can check the other.
    Carriers within ``TANGENCY_TOL`` of touching count as tangent, or as
    coincident when they also share their size and position.  One row of
    ``_carrier_contacts``; raises ``OverflowError`` where a square it forms
    leaves the float range.
    """
    fields = [
        (s.cx, s.cy, s.radius) + (math.nan,) * 4 if isinstance(s, Circle)
        else (math.nan,) * 3 + (s.x0, s.y0, s.dx, s.dy)
        for s in (leaf1.shape, leaf2.shape)
    ]
    kind, points, out = _carrier_contacts(*np.array(fields[0] + fields[1])[:, None])
    if out[0]:
        raise OverflowError("a square of the carriers leaves the float range")
    x1, y1, x2, y2 = (float(p[0]) for p in points)
    # The kernel writes nan after a row's last point.
    contacts = tuple((x, y) for x, y in ((x1, y1), (x2, y2)) if x == x or y == y)
    return CarrierContact(_KIND_NAMES[int(kind[0])], contacts)


def _carrier_contacts(*columns):
    """``carrier_contact`` on each row of carrier columns, in its own IEEE
    steps: ``math.hypot`` (``_hypot``), Python's ``r**2`` (``_squares``),
    the circle first in a mixed pair and the 1e-14 parallel test.

    ``columns`` are the carrier columns of the first leaves, then of the
    second: ``(cx, cy, radius)`` each, or the seven columns
    ``(cx, cy, radius, x0, y0, dx, dy)`` with nan on the other shape's
    fields.  Returns ``kind`` (codes, see ``CONTACT_KINDS``), the four
    point columns ``x1, y1, x2, y2``, the points in ``carrier_contact``'s
    order with nan past a row's last one, and ``out``: the rows whose
    carriers, or a square formed from them, leave the float range (a
    field is infinite, or a square ``carrier_contact`` takes overflows,
    where it raises ``OverflowError``).
    """
    half = len(columns) // 2
    first, second = columns[:half], columns[half:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.isinf(first[:5] + second[:5]).any(axis=0)
        if half == 3:
            kind, points, square_out = _circle_contacts(*first, *second)
            return kind, points, out | square_out
        line1, line2 = np.isnan(first[2]), np.isnan(second[2])
        # A mixed pair puts its circle first, as carrier_contact does.
        mixed = [np.where(line1, y, x) for x, y in zip(first[:3], second[:3])]
        mixed += [np.where(line1, x, y) for x, y in zip(first[3:], second[3:])]
        kind = np.empty(line1.size, dtype=np.int8)
        points = np.empty((4, line1.size))
        for rows, contacts, cols in (
            (~(line1 | line2), _circle_contacts, first[:3] + second[:3]),
            (line1 != line2, _circle_line_contacts, mixed),
            (line1 & line2, _line_contacts, first[3:] + second[3:]),
        ):
            rows = np.flatnonzero(rows)
            if rows.size:
                kind[rows], points[:, rows], square_out = contacts(*(c[rows] for c in cols))
                out[rows] |= square_out
    return kind, points, out


def _circle_contacts(x1, y1, r1, x2, y2, r2):
    """``_carrier_contacts`` on circle pairs, with the rows where a square
    overflows."""
    dx, dy = x2 - x1, y2 - y1
    d = _hypot(dx, dy)
    rdiff = np.abs(r1 - r2)
    coincident = (d <= TANGENCY_TOL) & (rdiff <= TANGENCY_TOL)
    outer, inner = np.abs(d - (r1 + r2)), np.abs(d - rdiff)
    gap = np.where(inner < outer, inner, outer)  # Python's min(outer, inner)
    meet = ~coincident & (d != 0.0)  # the rows that take the squares
    ux, uy = dx / d, dy / d
    r1r1, r2r2 = _squares(r1), _squares(r2)
    a = (r1r1 - r2r2 + d * d) / (2.0 * d)
    mx, my = x1 + a * ux, y1 + a * uy
    tangent = meet & (gap <= TANGENCY_TOL)
    disc = r1r1 - a * a
    transverse = meet & ~tangent & ~(disc <= 0.0)
    kind = np.where(coincident, _COINCIDENT, np.where(tangent, _TANGENT, _NONE))
    kind = np.where(transverse, _TRANSVERSE, kind)
    root = np.where(transverse, np.sqrt(disc), math.nan)  # nan leaves a row's points out
    points = (
        np.where(tangent, mx, mx - root * uy),
        np.where(tangent, my, my + root * ux),
        mx + root * uy,
        my - root * ux,
    )
    return kind, points, meet & (np.isinf(r1r1) | np.isinf(r2r2))


def _circle_line_contacts(cx, cy, r, x0, y0, dx, dy):
    """``_carrier_contacts`` on circle-line pairs: the centre's foot on the
    line decides everything.  With the rows where a square overflows."""
    fx, fy = _foot(cx, cy, x0, y0, dx, dy)
    dist = _hypot(cx - fx, cy - fy)
    tangent = np.abs(dist - r) <= TANGENCY_TOL
    transverse = ~tangent & ~(dist >= r)
    rr = _squares(r)
    half = np.where(transverse, np.sqrt(rr - dist * dist), math.nan)
    kind = np.where(tangent, _TANGENT, np.where(transverse, _TRANSVERSE, _NONE))
    points = (
        np.where(tangent, fx, fx - half * dx),
        np.where(tangent, fy, fy - half * dy),
        fx + half * dx,
        fy + half * dy,
    )
    return kind, points, transverse & np.isinf(rr)


def _foot(cx, cy, x0, y0, dx, dy):
    """The foot (fx, fy) of each centre (cx, cy) on its line through
    (x0, y0) with unit direction (dx, dy)."""
    u = (cx - x0) * dx + (cy - y0) * dy
    return x0 + u * dx, y0 + u * dy


def _line_contacts(x1, y1, dx1, dy1, x2, y2, dx2, dy2):
    """``_carrier_contacts`` on line pairs, where no square overflows."""
    cross = dx1 * dy2 - dy1 * dx2
    parallel = np.abs(cross) <= 1e-14
    # Parallel: separation is the cross product of the offset with the direction.
    coincident = parallel & (np.abs((x2 - x1) * dy1 - (y2 - y1) * dx1) <= TANGENCY_TOL)
    u = np.where(parallel, math.nan, ((x2 - x1) * dy2 - (y2 - y1) * dx2) / cross)
    kind = np.where(coincident, _COINCIDENT, np.where(parallel, _NONE, _TRANSVERSE))
    nan = np.full(u.size, math.nan)
    return kind, (x1 + u * dx1, y1 + u * dy1, nan, nan), np.zeros(u.size, dtype=bool)


def _hypot(x, y) -> np.ndarray:
    """``math.hypot`` of each pair of elements.  numpy's misses it in the
    last bit on about 0.6 % of inputs, but not where x or y is 0: both
    then give the other's absolute value.  So a column of zeros, as on
    the geodesic's and the horocycle's circles, whose centres share an
    axis, takes numpy's."""
    if x.any() and y.any():
        return _math_map(math.hypot, x, y)
    return np.hypot(x, y)


def _squares(r) -> np.ndarray:
    """Python's ``r**2`` of each element, which numpy's r*r misses in the
    last bit on about 0.1 % of inputs; inf where it overflows, which is
    where r*r does, and where Python raises ``OverflowError``."""
    rr = r * r
    fits = np.isfinite(rr)
    squares = map(pow, np.where(fits, r, 0.0).tolist(), itertools.repeat(2.0))
    return np.where(fits, np.fromiter(squares, float, r.size), rr)


def upper_contact(contact: CarrierContact) -> tuple[float, float] | None:
    """The first contact point above the boundary (y > ``BOUNDARY_TOL``),
    or None when the carriers do not meet above it.

    Coincident carriers share their whole upper arc and count, with the
    witness (nan, nan).  Boundary tangencies (horospheres touching at an
    ideal point) do not count.
    """
    if contact.kind == "coincident":
        return math.nan, math.nan
    return next(((x, y) for x, y in contact.points if y > BOUNDARY_TOL), None)


def _upper_contacts(kind, points):
    """``upper_contact`` on the rows of ``_carrier_contacts``' ``kind`` and
    ``points``: the witness columns x and y (nan on coincident rows), and
    which rows have a witness."""
    x1, y1, x2, y2 = points
    first = y1 > BOUNDARY_TOL
    y = np.where(first, y1, y2)
    return np.where(first, x1, x2), y, (kind == _COINCIDENT) | (y > BOUNDARY_TOL)
