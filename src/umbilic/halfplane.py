"""Primitives of the upper half-plane model.

The model is the set ``{(x, y) : y > 0}`` carrying the Euclidean metric
scaled by ``1/y**2``.  Ideal boundary points are the reals plus one point
at infinity, represented here by ``math.inf``.  Orientation-preserving
isometries are fractional-linear maps with real coefficients and positive
determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateInputError, DomainError

#: The ideal point at infinity.
INFINITY = math.inf

#: Default tolerance for coincidence checks on ideal points.
COINCIDENCE_TOL = 1e-9


def ath(t: float) -> float:
    """Inverse hyperbolic tangent, ``ln sqrt((1+t)/(1-t))``, for |t| < 1."""
    if not -1.0 < t < 1.0:
        raise DomainError(f"ath is defined on (-1, 1), got {t!r}")
    return math.atanh(t)


@dataclass(frozen=True)
class HPoint:
    """Interior point of the half-plane.  ``y`` must be strictly positive."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not self.y > 0:
            raise DomainError(f"interior points need y > 0, got y={self.y!r}")


def hyperbolic_distance(p: HPoint, q: HPoint) -> float:
    """Distance between two interior points.

    Computed as ``2 ash(|z - w| / (2 sqrt(y1 y2)))``, which equals
    ``2 ath(|z - w| / |z - conj(w)|)`` but stays well conditioned for far
    apart points, where that ratio rounds towards 1.  Horizontal segments
    at height y have length (gap)/y to first order; vertical segments give
    exactly ``|ln(y1/y2)|``.
    """
    gap = math.hypot(p.x - q.x, p.y - q.y)
    return 2.0 * math.asinh(gap / (2.0 * math.sqrt(p.y) * math.sqrt(q.y)))


class TransversalKind(str, Enum):
    GEODESIC = "geodesic"
    HYPERCYCLE = "hypercycle"
    HOROCYCLE = "horocycle"


@dataclass(frozen=True)
class Transversal:
    """One of the three canonical transversal curves.

    * ``geodesic``        -- the positive vertical axis, ``t -> (0, e^t)``.
    * ``hypercycle(phi)`` -- the ray at angle phi from the boundary,
      ``t -> e^(t sin phi) (cos phi, sin phi)``, with phi in (0, pi/2).
      Its points keep constant distance ath(cos phi) from the vertical axis.
    * ``horocycle(a)``    -- the horizontal line ``t -> (t, a)`` at height
      a > 0.  Note this chart is unit-speed only at a = 1; the geodesic
      and hypercycle charts are unit-speed everywhere.
    """

    kind: TransversalKind
    phi: float | None = None
    height: float | None = None

    def __post_init__(self) -> None:
        if self.kind == TransversalKind.HYPERCYCLE:
            if self.phi is None or not 0.0 < self.phi < math.pi / 2:
                raise DomainError(
                    f"hypercycle angle must lie in (0, pi/2), got {self.phi!r}"
                )
            if self.height is not None:
                raise DomainError("height applies to horocycles only")
        elif self.kind == TransversalKind.HOROCYCLE:
            if self.height is None or not self.height > 0:
                raise DomainError(
                    f"horocycle height must be positive, got {self.height!r}"
                )
            if self.phi is not None:
                raise DomainError("phi applies to hypercycles only")
        else:
            if self.phi is not None or self.height is not None:
                raise DomainError("the geodesic transversal takes no parameters")

    @classmethod
    def geodesic(cls) -> "Transversal":
        return cls(TransversalKind.GEODESIC)

    @classmethod
    def hypercycle(cls, phi: float) -> "Transversal":
        return cls(TransversalKind.HYPERCYCLE, phi=phi)

    @classmethod
    def horocycle(cls, height: float) -> "Transversal":
        return cls(TransversalKind.HOROCYCLE, height=height)

    @property
    def curvature_bound(self) -> float:
        """Largest |h| an orthogonal leaf family can carry along this curve.

        1 for the geodesic, sin(phi) for a hypercycle, 0 for a horocycle.
        """
        if self.kind == TransversalKind.GEODESIC:
            return 1.0
        if self.kind == TransversalKind.HYPERCYCLE:
            return math.sin(self.phi)
        return 0.0

    def point(self, t: float) -> HPoint:
        """The point at parameter t."""
        if self.kind == TransversalKind.GEODESIC:
            return HPoint(0.0, math.exp(t))
        if self.kind == TransversalKind.HYPERCYCLE:
            r = math.exp(t * math.sin(self.phi))
            return HPoint(r * math.cos(self.phi), r * math.sin(self.phi))
        return HPoint(t, self.height)


@dataclass(frozen=True)
class MobiusMap:
    """Fractional-linear map ``z -> (a z + b) / (c z + d)`` with real
    coefficients and positive determinant.

    Coefficients are normalized so the determinant is exactly 1 and the
    leading nonzero coefficient of (a, b) is positive, which makes equal
    maps compare equal.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        det = self.a * self.d - self.b * self.c
        if not (math.isfinite(det) and det > 0):
            raise DegenerateInputError(
                f"need a finite positive determinant, got {det!r}"
            )
        r = math.sqrt(det)
        coeffs = [self.a / r, self.b / r, self.c / r, self.d / r]
        if coeffs[0] < 0 or (coeffs[0] == 0 and coeffs[1] < 0):
            coeffs = [-v for v in coeffs]
        for name, v in zip("abcd", coeffs):
            object.__setattr__(self, name, v)

    @classmethod
    def identity(cls) -> "MobiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def translation(cls, dx: float) -> "MobiusMap":
        return cls(1.0, dx, 0.0, 1.0)

    @classmethod
    def scaling(cls, k: float) -> "MobiusMap":
        if not k > 0:
            raise DomainError(f"scaling factor must be positive, got {k!r}")
        return cls(k, 0.0, 0.0, 1.0)

    def apply(self, p: HPoint) -> HPoint:
        z = complex(p.x, p.y)
        w = (self.a * z + self.b) / (self.c * z + self.d)
        return HPoint(w.real, w.imag)

    def apply_ideal(self, x: float) -> float:
        """Image of an ideal point (a real number or INFINITY)."""
        if math.isinf(x):
            return self.a / self.c if self.c != 0.0 else INFINITY
        den = self.c * x + self.d
        if den == 0.0:
            return INFINITY
        return (self.a * x + self.b) / den

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """The map ``self after other`` (matrix product)."""
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)


def _endpoint_map(e0: float, e1: float) -> MobiusMap:
    """Map sending ideal points e0 -> 0 and e1 -> infinity.

    For finite endpoints, the apex of the semicircle over [e0, e1] lands
    exactly on (0, 1).
    """
    if math.isinf(e0) and math.isinf(e1):
        raise DegenerateInputError("both endpoints at infinity")
    if e0 == e1:
        raise DegenerateInputError(f"coincident ideal endpoints {e0!r}")
    if math.isinf(e0):
        return MobiusMap(0.0, -1.0, 1.0, -e1)  # z -> -1 / (z - e1)
    if math.isinf(e1):
        return MobiusMap(1.0, -e0, 0.0, 1.0)  # z -> z - e0
    if e1 > e0:
        return MobiusMap(-1.0, e0, 1.0, -e1)  # z -> (e0 - z) / (z - e1)
    return MobiusMap(1.0, -e0, 1.0, -e1)  # z -> (z - e0) / (z - e1)


def canonical_isometry(start: float, end: float, angle: float | None = None) -> MobiusMap:
    """Isometry carrying a geodesic or hypercycle onto its canonical form.

    The source curve runs from ideal point ``start`` to ideal point ``end``
    (each a real number or INFINITY).  With ``angle=None`` it is the
    geodesic between them; the returned map sends start to 0 and end to
    infinity, so the curve lands on the upward vertical axis.  For finite
    endpoints the apex maps to (0, 1) exactly.

    For a hypercycle pass the signed boundary angle, |angle| in (0, pi/2).
    A positive sign means the arc leans over ``start`` (it meets the
    boundary there at |angle| measured toward ``end``), and the map sends
    start -> 0, end -> infinity, putting the arc on the canonical ray at
    angle |angle|.  A negative sign swaps the roles of the endpoints.
    """
    if angle is None:
        return _endpoint_map(start, end)
    if not 0.0 < abs(angle) < math.pi / 2:
        raise DomainError(
            f"hypercycle boundary angle needs 0 < |angle| < pi/2, got {angle!r}"
        )
    if angle > 0:
        return _endpoint_map(start, end)
    return _endpoint_map(end, start)


def canonical_horocycle_isometry(tangent_point: float, size: float) -> MobiusMap:
    """Isometry carrying a horocycle onto the height-1 horizontal line.

    A horizontal line at height ``a`` (ideal point INFINITY, size a) maps
    by the pure scaling ``z -> z/a``.  A circle tangent to the boundary at
    a finite point ``p`` with Euclidean diameter ``D`` maps by
    ``z -> -D/(z - p)``, which sends the tangency point to infinity and
    the top of the circle to (0, 1).
    """
    if not size > 0:
        raise DomainError(f"horocycle size must be positive, got {size!r}")
    if math.isinf(tangent_point):
        return MobiusMap(1.0, 0.0, 0.0, size)
    return MobiusMap(0.0, -size, 1.0, -tangent_point)
