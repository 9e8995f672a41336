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

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, NotALeafError

#: Carrier contacts with gap below this are classified as tangencies.
TANGENCY_TOL = 1e-9

#: Points with |y| at or below this sit on the ideal boundary.
BOUNDARY_TOL = 1e-9

#: Boundary angles within this of 0, pi/2 or pi take that leaf kind.
_KIND_TOL = 1e-12

#: A leaf within this of the line limit (pi - beta on the geodesic,
#: sin phi + cos beta on a hypercycle) is a line.  The constructors and
#: the pair slacks share it, so the predicates and the contact oracle
#: agree on which leaves are lines.
_LINE_TOL = 1e-12

_ANGLE_MATCH_TOL = 1e-6


class LeafKind(str, Enum):
    HOROSPHERE = "horosphere"
    HYPERSPHERE = "hypersphere"
    TOTALLY_GEODESIC = "totally_geodesic"


def classify_leaf(beta: float) -> LeafKind:
    """Classify a boundary angle: horosphere at 0 or pi, totally geodesic
    at pi/2, hypersphere in between."""
    _check_beta(beta)
    if beta <= _KIND_TOL or beta >= math.pi - _KIND_TOL:
        return LeafKind.HOROSPHERE
    if abs(beta - math.pi / 2) <= _KIND_TOL:
        return LeafKind.TOTALLY_GEODESIC
    return LeafKind.HYPERSPHERE


def mean_curvature_from_angle(beta: float) -> float:
    """h = -cos(beta) for beta in [0, pi]."""
    _check_beta(beta)
    return -math.cos(beta)


def angle_from_mean_curvature(h: float) -> float:
    """Inverse of :func:`mean_curvature_from_angle`; needs |h| <= 1."""
    if not -1.0 <= h <= 1.0:
        raise DomainError(f"mean curvature of a leaf satisfies |h| <= 1, got {h!r}")
    return math.acos(-h)


def equidistant_offset(beta: float) -> float:
    """Signed distance from a leaf with boundary angle beta to the geodesic
    sharing its ideal endpoints.

    Satisfies cos(beta) = tanh(offset) and cot(beta) = sinh(offset); the
    offset is positive on the side the leaf bends away from.  Horospherical
    angles return +/-inf as the divergence signal.
    """
    _check_beta(beta)
    if beta <= 0.0:
        return math.inf
    if beta >= math.pi:
        return -math.inf
    return math.atanh(math.cos(beta))


def _check_beta(beta: float) -> None:
    if not 0.0 <= beta <= math.pi:
        raise DomainError(f"boundary angle must lie in [0, pi], got {beta!r}")


@dataclass(frozen=True)
class Circle:
    """Euclidean circle carrier.  Center may lie on or below the boundary."""

    cx: float
    cy: float
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise DomainError(f"circle radius must be positive, got {self.radius!r}")


@dataclass(frozen=True)
class Line:
    """Straight carrier through (x0, y0) with unit direction (dx, dy), dy >= 0."""

    x0: float
    y0: float
    dx: float
    dy: float

    def __post_init__(self) -> None:
        norm = math.hypot(self.dx, self.dy)
        if not norm > 0:
            raise DomainError("line direction must be nonzero")
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
        disc = s.radius * s.radius - s.cy * s.cy
        if disc <= 0.0:
            # Tangent circle: both endpoints collapse onto the tangency point.
            return IdealEndpoints(s.cx, s.cx)
        root = math.sqrt(disc)
        return IdealEndpoints(s.cx - root, s.cx + root)
    if s.dy == 0.0:
        return IdealEndpoints(-math.inf, math.inf)
    crossing = s.x0 - s.y0 * s.dx / s.dy
    if s.dx > 0:
        return IdealEndpoints(crossing, math.inf)
    if s.dx < 0:
        return IdealEndpoints(-math.inf, crossing)
    return IdealEndpoints(crossing, math.inf)  # vertical line


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
    if math.pi - beta <= _LINE_TOL:
        return Leaf(Line(0.0, s, 1.0, 0.0), math.pi)
    radius = s / (1.0 + math.cos(beta))
    return Leaf(Circle(0.0, s - radius, radius), beta)


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
    if not 0.0 < phi < math.pi / 2:
        raise DomainError(f"hypercycle angle must lie in (0, pi/2), got {phi!r}")
    if not s > 0:
        raise DomainError(f"crossing distance must be positive, got {s!r}")
    _check_beta(beta)
    sphi = math.sin(phi)
    cbeta = math.cos(beta)
    if abs(cbeta) > sphi + 1e-12:
        raise DomainError(
            f"no leaf with angle {beta!r} crosses the phi={phi!r} ray orthogonally"
        )
    den = sphi + cbeta
    if den <= _LINE_TOL:
        return Leaf(
            Line(s * math.cos(phi), s * sphi, -sphi, math.cos(phi)), beta
        )
    scale = s * cbeta / den
    return Leaf(Circle(scale * math.cos(phi), scale * sphi, s * sphi / den), beta)


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
    return _geodesic_slack(s1, beta1, s2, beta2) >= 0.0


def _geodesic_slack(s1, beta1, s2, beta2) -> float:
    """``s2 tan(beta2/2) - s1 tan(beta1/2)``, the gap between the right
    ideal endpoints; +inf for a horizontal upper leaf and -inf for a
    horizontal lower one."""
    if beta2 >= math.pi - _LINE_TOL:
        return math.inf
    if beta1 >= math.pi - _LINE_TOL:
        return -math.inf
    return s2 * math.tan(beta2 / 2.0) - s1 * math.tan(beta1 / 2.0)


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
    if not 0.0 < phi < math.pi / 2:
        raise DomainError(f"hypercycle angle must lie in (0, pi/2), got {phi!r}")
    if not 0.0 < s1 < s2:
        raise DomainError(f"need 0 < s1 < s2, got s1={s1!r}, s2={s2!r}")
    sphi = math.sin(phi)
    for beta in (beta1, beta2):
        _check_beta(beta)
        if abs(math.cos(beta)) > sphi + 1e-12:
            raise DomainError(
                f"angle {beta!r} is not admissible for the phi={phi!r} ray"
            )
    return _hypercycle_slack(phi, s1, beta1, s2, beta2) >= 0.0


def _hypercycle_slack(phi, s1, beta1, s2, beta2) -> float:
    """``a1- - a2-``, the gap between the left ideal endpoints; +inf when
    the upper leaf is a line and -inf when only the lower one is."""
    sphi = math.sin(phi)
    line1 = sphi + math.cos(beta1) <= _LINE_TOL
    line2 = sphi + math.cos(beta2) <= _LINE_TOL
    if line1:
        return math.inf if line2 else -math.inf
    if line2:
        return math.inf
    a1 = s1 * math.cos(phi + beta1) / (sphi + math.cos(beta1))
    a2 = s2 * math.cos(phi + beta2) / (sphi + math.cos(beta2))
    return a1 - a2


@dataclass(frozen=True)
class CarrierContact:
    """Intersection data for two carriers.

    ``kind`` is one of ``none``, ``transverse``, ``tangent``,
    ``coincident``; ``points`` lists the contact points (empty for
    ``none`` and ``coincident``).
    """

    kind: str
    points: tuple[tuple[float, float], ...] = ()


def carrier_contact(leaf1: Leaf, leaf2: Leaf) -> CarrierContact:
    """Full contact analysis of two leaf carriers in the whole plane.

    This is the explicit geometric route, kept deliberately independent of
    the closed-form disjointness predicates so each can check the other.
    Carriers within ``TANGENCY_TOL`` of touching count as tangent, or as
    coincident when they also share their size and position.
    """
    s1, s2 = leaf1.shape, leaf2.shape
    if isinstance(s1, Circle) and isinstance(s2, Circle):
        return _circle_circle(s1, s2)
    if isinstance(s1, Circle):
        return _circle_line(s1, s2)
    if isinstance(s2, Circle):
        return _circle_line(s2, s1)
    return _line_line(s1, s2)


def _circle_circle(c1: Circle, c2: Circle) -> CarrierContact:
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


def _circle_line(c: Circle, ln: Line) -> CarrierContact:
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


def _line_line(l1: Line, l2: Line) -> CarrierContact:
    cross = l1.dx * l2.dy - l1.dy * l2.dx
    if abs(cross) <= 1e-14:
        # Parallel: separation is the cross product of the offset with the direction.
        off = (l2.x0 - l1.x0) * l1.dy - (l2.y0 - l1.y0) * l1.dx
        if abs(off) <= TANGENCY_TOL:
            return CarrierContact("coincident")
        return CarrierContact("none")
    u = ((l2.x0 - l1.x0) * l2.dy - (l2.y0 - l1.y0) * l2.dx) / cross
    return CarrierContact("transverse", ((l1.x0 + u * l1.dx, l1.y0 + u * l1.dy),))


def intersects_upper_halfplane(leaf1: Leaf, leaf2: Leaf) -> bool:
    """True iff the carriers share a point with y > BOUNDARY_TOL.

    Coincident carriers share their whole upper arc and count as
    intersecting.  Boundary tangencies (horospheres touching at an ideal
    point) do not.
    """
    contact = carrier_contact(leaf1, leaf2)
    if contact.kind == "coincident":
        return True
    return any(y > BOUNDARY_TOL for _, y in contact.points)
