"""Exception types shared across the package.

The CLI maps each class to a machine-readable error code (the class name
without the ``Error`` suffix), so identities matter more than messages.
"""

from __future__ import annotations


class NotAUnitError(ValueError):
    """Raised when a unit was required but the element has |norm| != 1."""


class BothZeroError(ValueError):
    """Raised by gcd-like operations when both arguments are zero."""


class ZeroInputError(ValueError):
    """Raised when a nonzero element was required."""


class UnitModulusError(ValueError):
    """Raised when a non-unit modulus was required."""


class NotCoprimeError(ValueError):
    """Raised when two elements were required to have unit gcd."""


class NotADivisorError(ValueError):
    """Raised when one element was required to divide another exactly."""


class NotReducedError(ValueError):
    """Raised when a fraction was required to be in reduced form."""


class BadDeterminantError(ValueError):
    """Raised when a matrix does not have determinant one."""


class BadRangeError(ValueError):
    """Raised when integer parameters fall outside their allowed range."""


class BoundExceededError(ValueError):
    """Raised when an enumeration would exceed its configured size bound."""


class FactorCapError(ValueError):
    """Raised when a norm cannot be factored within the configured caps."""


class IterationCapError(RuntimeError):
    """Raised when the reduction chain exceeds its step cap."""


class IntegrityError(RuntimeError):
    """Raised when an internal cross-check fails (a bug, never bad input)."""


class NotAGroupError(RuntimeError):
    """Raised when a quotient table fails its group-law checks."""


class UsageError(ValueError):
    """Raised on malformed command lines (bad verb, flags, or arity)."""


class ParseError(ValueError):
    """Raised on malformed element text; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position
