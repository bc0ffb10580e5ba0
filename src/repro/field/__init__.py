"""Finite-field substrate: ``GF(p)`` arithmetic on plain ints and prime
utilities.  Polynomials over the field are values, not objects:
:mod:`repro.poly` (``docs/ALGEBRA.md``)."""

from repro.field.gf import Field
from repro.field.primes import default_prime, is_prime, next_prime

__all__ = [
    "Field",
    "default_prime",
    "is_prime",
    "next_prime",
]
