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

from .errors import DomainError


@dataclass(frozen=True)
class HPoint:
    """Interior point of the half-plane.  ``y`` must be strictly positive,
    and both coordinates finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not self.y > 0:
            raise DomainError(f"interior points need y > 0, got y={self.y!r}")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError(
                f"interior points need finite coordinates, got ({self.x!r}, {self.y!r})"
            )


def hyperbolic_distance(p: HPoint, q: HPoint) -> float:
    """Distance between two interior points.

    Computed as ``2 ash(|z - w| / (2 sqrt(y1 y2)))``, which equals
    ``2 atanh(|z - w| / |z - conj(w)|)`` but stays well conditioned for far
    apart points, where that ratio rounds towards 1.  Horizontal segments
    at height y have length (gap)/y to first order; vertical segments give
    exactly ``|ln(y1/y2)|``.
    """
    gap = math.hypot(p.x - q.x, p.y - q.y)
    return 2.0 * math.asinh(gap / (2.0 * math.sqrt(p.y) * math.sqrt(q.y)))


def _check_ray_angle(phi: float | None) -> None:
    """Raise ``DomainError`` unless the hypercycle's ray angle is in (0, pi/2)."""
    if phi is None or not 0.0 < phi < math.pi / 2:
        raise DomainError(f"hypercycle angle must lie in (0, pi/2), got {phi!r}")


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
      Its points keep constant distance atanh(cos phi) from the vertical axis.
    * ``horocycle(a)``    -- the horizontal line ``t -> (t, a)`` at height
      a > 0.  Note this chart is unit-speed only at a = 1; the geodesic
      and hypercycle charts are unit-speed everywhere.
    """

    kind: TransversalKind
    phi: float | None = None
    height: float | None = None

    def __post_init__(self) -> None:
        if self.kind == TransversalKind.HYPERCYCLE:
            _check_ray_angle(self.phi)
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
        """The point at parameter t; ``DomainError`` where it leaves the
        float range or reaches the boundary (see ``_crossing``)."""
        if self.kind == TransversalKind.HOROCYCLE:
            return HPoint(t, self.height)
        r = _crossing(t, self.curvature_bound)
        if self.kind == TransversalKind.GEODESIC:
            return HPoint(0.0, r)
        return HPoint(r * math.cos(self.phi), r * math.sin(self.phi))


def _crossing(t: float, L: float) -> float:
    """e^(t L), the distance from the origin of the point at t on a
    geodesic (L = 1) or hypercycle (L = sin phi), where its leaf crosses
    it; ``DomainError`` where ``math.exp`` overflows."""
    try:
        return math.exp(t * L)
    except OverflowError:
        raise DomainError(f"the crossing at t={t!r} leaves the float range") from None
