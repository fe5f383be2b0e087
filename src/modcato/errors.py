"""Exception types shared across the package, and the check that the
characteristic p is a prime."""


class ModcatoError(Exception):
    """Base class for all library errors."""


class BoxMarginError(ModcatoError):
    """A truncation box is too shallow or too narrow for the operation."""


class PredicateError(ModcatoError):
    """A set predicate failed its open/closed validation."""


class SizeGuardError(ModcatoError):
    """A configured size limit was exceeded; the instance is too large."""


class ExactnessError(ModcatoError):
    """An exact-integrality assertion failed.  This always indicates an
    internal inconsistency, never a bad input."""


# Miller-Rabin to these bases is exact below _MR_LIMIT, the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def require_prime(p: int) -> None:
    """Raise a ModcatoError naming p unless p is a prime below _MR_LIMIT."""
    if not isinstance(p, int) or not _strong_probable_prime(p):
        raise ModcatoError(f"p={p!r} is not a prime")
    if p >= _MR_LIMIT:
        raise ModcatoError(f"p={p} is too large: primality is certified below {_MR_LIMIT}")


def _strong_probable_prime(n: int) -> bool:
    """False when n < 2 or some base in _MR_BASES witnesses that n is composite."""
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        if pow(b, d, n) != 1 and all(pow(b, d << i, n) != n - 1 for i in range(s)):
            return False
    return True
