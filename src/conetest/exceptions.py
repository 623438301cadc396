"""Exception types shared across the package."""


class ConeTestError(Exception):
    """Base class for all conetest errors."""


class DataError(ConeTestError):
    """Input data is malformed (wrong shape, non-finite entries, parse failure)."""


class InsufficientDataError(DataError):
    """Too few observations for the requested operation."""


class DegenerateVarianceError(DataError):
    """A coordinate has zero sample variance where a positive one is required."""


class ConditioningError(ConeTestError):
    """A matrix block is singular or too ill-conditioned to invert.

    The offending index subset, when known, is stored in ``subset``.
    """

    def __init__(self, message, subset=None):
        super().__init__(message)
        self.subset = subset


class MetricError(ConeTestError):
    """A metric or covariance matrix is not symmetric positive definite."""


class SolverError(ConeTestError):
    """The active-set solver failed to converge; diagnostics in ``details``."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}


class ReductionError(ConeTestError):
    """A hypothesis-reduction matrix is rank deficient or otherwise invalid."""


class CalibrationError(ConeTestError):
    """A critical value or p-value cannot be produced as requested."""


class QuadratureError(ConeTestError):
    """Numerical integration did not reach the requested tolerance."""

    def __init__(self, message, error_estimate=None):
        super().__init__(message)
        self.error_estimate = error_estimate
