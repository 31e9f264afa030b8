"""Exception types shared across the package.

The CLI maps ConfigurationError and DomainError to exit code 2 (usage),
everything else to a nonzero failure exit.
"""

__all__ = ["CsmetricError", "DomainError", "ConfigurationError", "NumericError",
           "PreconditionError", "InternalError"]


class CsmetricError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CsmetricError):
    """A point or argument lies outside the declared domain."""


class ConfigurationError(CsmetricError):
    """Invalid names, parameters, or an empty/unusable sample."""


class NumericError(CsmetricError):
    """A computation produced a non-finite value where a finite one is required."""


class PreconditionError(CsmetricError):
    """An operation was called on inputs that violate its stated precondition."""


class InternalError(CsmetricError):
    """An internal invariant failed; indicates a bug, not a user error."""
