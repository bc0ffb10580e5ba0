"""Finite-field substrate: ``GF(p)`` arithmetic on plain ints, prime
utilities, and the swappable vectorized algebra backend (see
``docs/ALGEBRA.md``).  Polynomials over the field are values, not objects:
:mod:`repro.poly`."""

from repro.field.backend import (
    BACKENDS,
    active_backend,
    available_backends,
    numpy_available,
    resolve_backend,
    set_backend,
)
from repro.field.gf import DEFAULT_FIELD, Field
from repro.field.primes import (
    DEFAULT_PRIME,
    INT64_SAFE_MAX_BITS,
    INT64_SAFE_PRIMES,
    SMALL_TEST_PRIME,
    is_int64_safe,
    is_prime,
    next_prime,
    require_int64_safe,
    smallest_field_prime,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_FIELD",
    "DEFAULT_PRIME",
    "INT64_SAFE_MAX_BITS",
    "INT64_SAFE_PRIMES",
    "SMALL_TEST_PRIME",
    "Field",
    "active_backend",
    "available_backends",
    "is_int64_safe",
    "is_prime",
    "next_prime",
    "numpy_available",
    "require_int64_safe",
    "resolve_backend",
    "set_backend",
    "smallest_field_prime",
]
