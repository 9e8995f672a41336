"""Umbilical leaf families along geodesics and hypercycles in the
hyperbolic space H^n, computed in the vertical half-plane that holds the
transversal (README, *The question in H^n*).

The package decides when a prescribed mean-curvature course along a
canonical transversal is realized by a pairwise disjoint family of
umbilic leaves, builds and audits those families, and renders them.
"""

from .errors import (
    DomainError,
    GeometryError,
    InvalidRouteError,
    NotALeafError,
    RouteParseError,
)
from .halfplane import (
    HPoint,
    Transversal,
    TransversalKind,
    hyperbolic_distance,
)
from .leaves import (
    CarrierContact,
    Circle,
    IdealEndpoints,
    Leaf,
    LeafKind,
    Line,
    carrier_contact,
    classify_leaf,
    disjoint_along_geodesic,
    disjoint_along_hypercycle,
    equidistant_offset,
    ideal_endpoints,
    leaf_orthogonal_to_geodesic,
    leaf_orthogonal_to_hypercycle,
    upper_contact,
)
from .validation import (
    Route,
    Verdict,
    Violation,
    Zones,
    lipschitz_profile,
    min_curvature_rate,
    profile_inverse,
    validate,
    validate_c0,
    validate_c1,
    validate_horocycle,
)
from .foliation import (
    BUILTIN_FAMILIES,
    AgreementStats,
    DisjointnessReport,
    FoliationSlice,
    PairContact,
    builtin_route,
    extend_slice,
    perturbed_invalid_route,
    random_valid_route,
    run_disjointness_agreement,
    synthesize,
    verify_disjoint,
)
from .routes_io import (
    document_to_route,
    dumps_document,
    load_route,
    loads_route,
    route_to_document,
    validate_document,
)
from .render import Viewport, render_svg

__version__ = "0.1.0"

__all__ = [
    "AgreementStats",
    "BUILTIN_FAMILIES",
    "CarrierContact",
    "Circle",
    "DisjointnessReport",
    "DomainError",
    "FoliationSlice",
    "GeometryError",
    "HPoint",
    "IdealEndpoints",
    "InvalidRouteError",
    "Leaf",
    "LeafKind",
    "Line",
    "NotALeafError",
    "PairContact",
    "Route",
    "RouteParseError",
    "Transversal",
    "TransversalKind",
    "Verdict",
    "Viewport",
    "Violation",
    "Zones",
    "builtin_route",
    "carrier_contact",
    "classify_leaf",
    "disjoint_along_geodesic",
    "disjoint_along_hypercycle",
    "document_to_route",
    "dumps_document",
    "equidistant_offset",
    "extend_slice",
    "hyperbolic_distance",
    "ideal_endpoints",
    "leaf_orthogonal_to_geodesic",
    "leaf_orthogonal_to_hypercycle",
    "lipschitz_profile",
    "load_route",
    "loads_route",
    "min_curvature_rate",
    "perturbed_invalid_route",
    "profile_inverse",
    "random_valid_route",
    "render_svg",
    "route_to_document",
    "run_disjointness_agreement",
    "synthesize",
    "upper_contact",
    "validate",
    "validate_c0",
    "validate_c1",
    "validate_document",
    "validate_horocycle",
    "verify_disjoint",
]
