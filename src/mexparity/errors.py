"""Typed errors for requests that would exhaust time or memory.

Each brute-force enumeration and each series domain has a ceiling on
the size it accepts, and so do the congruence scanner's modulus and the
crank/rank bound; a request past one fails at once with a LimitError
(a ValueError) instead of running for minutes or exhausting memory.
"""

__all__ = ["LimitError", "EnumerationLimitError", "OrderLimitError"]


class LimitError(ValueError):
    """A request exceeds a ceiling that keeps it within time and memory."""


class EnumerationLimitError(LimitError):
    """Raised when a brute-force request exceeds the enumeration ceiling."""


class OrderLimitError(LimitError):
    """Raised when a series request exceeds its domain's order ceiling."""
