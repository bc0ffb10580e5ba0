"""Finite-field substrate: ``GF(p)`` arithmetic on plain ints and prime
utilities.  Polynomials over the field are values, not objects:
:mod:`repro.poly` (``docs/ALGEBRA.md``)."""

from repro.field.gf import DEFAULT_FIELD, Field
from repro.field.primes import (
    DEFAULT_PRIME,
    SMALL_TEST_PRIME,
    is_prime,
    next_prime,
)

__all__ = [
    "DEFAULT_FIELD",
    "DEFAULT_PRIME",
    "SMALL_TEST_PRIME",
    "Field",
    "is_prime",
    "next_prime",
]
