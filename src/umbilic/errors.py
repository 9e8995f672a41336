"""Exception types shared across the package."""


class GeometryError(ValueError):
    """Base class for domain and construction failures in the geometry layer."""


class DomainError(GeometryError):
    """Input lies outside the mathematical domain of an operation."""


class NotALeafError(GeometryError):
    """The requested circle or line cannot bound a leaf in the upper half-plane."""


class RouteParseError(ValueError):
    """A route document violates the schema.

    ``path`` points at the offending field, e.g. ``"samples[3].h"``.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class InvalidRouteError(GeometryError):
    """Synthesis refused a route that failed validation.

    Carries the full ``Verdict`` so callers can inspect or report the
    violations without re-running the validator.
    """

    def __init__(self, message: str, verdict=None):
        self.verdict = verdict
        super().__init__(message)
