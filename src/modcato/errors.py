"""Exception types shared across the package, and the check that the
characteristic p is a prime."""

import math


class ModcatoError(Exception):
    """Base class for all library errors."""


class BoxMarginError(ModcatoError):
    """A truncation box is too shallow or too narrow for the operation."""


class RegionError(ModcatoError):
    """A weight region misses entries the computation would need."""


class PredicateError(ModcatoError):
    """A set predicate failed its open/closed validation."""


class SizeGuardError(ModcatoError):
    """A configured size limit was exceeded; the instance is too large."""


class ExactnessError(ModcatoError):
    """An exact-integrality assertion failed.  This always indicates an
    internal inconsistency, never a bad input."""


class InvalidCharacterError(ModcatoError):
    """An input character is not a nonnegative combination of simples."""


def require_prime(p: int) -> None:
    """Raise a ModcatoError naming p unless p is a prime."""
    if (
        not isinstance(p, int)
        or p < 2
        or any(p % d == 0 for d in range(2, math.isqrt(p) + 1))
    ):
        raise ModcatoError(f"p={p!r} is not a prime")
