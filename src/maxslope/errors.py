"""Exception hierarchy shared across the package."""


class MaxslopeError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(MaxslopeError):
    """A point does not fit the ambient space it is used in."""


class CapabilityAbsentError(MaxslopeError):
    """An optional closed-form capability (limit family, curvature) is not
    available for the requested energy kind."""


class EvaluationError(MaxslopeError):
    """A non-finite number where a finite one is needed: a custom
    expression's value or gradient, a numeric prox search window or a
    scheme iterate.  ``point`` is the offending point, when known."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class CertificateFailure(MaxslopeError):
    """Well-posedness certification found a witness violating the coercivity
    bound.  ``witness`` is the offending ``(eps, coordinate row)`` pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidDeltaError(MaxslopeError):
    """A proximal step size that is not positive."""


class BudgetExhaustedError(MaxslopeError):
    """Numeric minimization hit its evaluation budget before reaching the
    requested tolerance."""


class CoverageGapError(MaxslopeError):
    """An interpolant does not cover the requested step range."""


class ConfigError(MaxslopeError):
    """Malformed or incomplete experiment configuration."""


class SequenceNotConvergentError(ConfigError):
    """A sample sequence handed to a checker does not approach its declared
    limit point: the input is at fault, so it is a config error."""
