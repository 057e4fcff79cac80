"""Exception types shared across the package.

Every failure mode raised by the public API derives from FimallocError,
so callers can catch one base class at the CLI boundary.
"""


class FimallocError(Exception):
    """Base class for all package-specific errors."""


class NotSymmetric(FimallocError):
    """Covariance matrix is not symmetric."""


class NotPositiveDefinite(FimallocError):
    """Covariance matrix has an eigenvalue at or below tolerance."""


class DimensionMismatch(FimallocError):
    """Vector or matrix dimensions are inconsistent."""


class InfeasibleGeometry(FimallocError):
    """Sensor placement failed: re-draw budget exhausted."""


class ParseError(FimallocError):
    """Scenario or data file is malformed; message names the field."""


class SchemaVersionMismatch(FimallocError):
    """Scenario file declares an unsupported schema version."""


class QuadratureNotConverged(FimallocError):
    """The quadrature guard's finest rungs still disagree by too much."""


class ConcavityViolation(FimallocError):
    """Per-sensor information is not concave in power where assumed."""


class NoConvergence(FimallocError):
    """Iterative solver hit its iteration cap."""


class GridMismatch(FimallocError):
    """Value table and power grid are inconsistent."""


class TooLarge(FimallocError):
    """Instance exceeds the brute-force size limits."""
