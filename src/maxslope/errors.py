"""Exception hierarchy shared across the package."""


class MaxslopeError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(MaxslopeError):
    """A point does not fit the ambient space it is used in."""


class CapabilityAbsentError(MaxslopeError):
    """An optional closed-form capability (gradient, limit, exact prox) is
    not available for the requested energy kind."""


class EvaluationError(MaxslopeError):
    """A non-finite number where a finite one is needed: a custom
    expression's value or gradient, or a numeric prox search window.

    Carries the offending point in ``args[1]`` when available.
    """


class CertificateFailure(MaxslopeError):
    """Well-posedness certification found a witness violating the coercivity
    bound.  ``witness`` is the offending ``(eps, point)`` pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidDeltaError(MaxslopeError):
    """Proximal step size at or beyond the certified upper threshold."""


class BudgetExhaustedError(MaxslopeError):
    """Numeric minimization hit its evaluation budget before reaching the
    requested tolerance."""


class SequenceNotConvergentError(MaxslopeError):
    """A sample sequence handed to a checker does not approach its declared
    limit point."""


class CoverageGapError(MaxslopeError):
    """An interpolant does not cover the requested step range."""


class ConfigError(MaxslopeError):
    """Malformed or incomplete experiment configuration."""
