"""Primality testing and prime selection for finite-field moduli.

The protocols only require ``|F| > n`` (paper §3.2), so fields are small by
cryptographic standards; a deterministic Miller-Rabin variant is more than
sufficient and keeps the library dependency-free.
"""

from __future__ import annotations

from repro.errors import FieldError

# Deterministic Miller-Rabin witness set, valid for every candidate below
# 3,317,044,064,679,887,385,961,981 (Sorenson & Webster, 2015).  All moduli
# used by this library are far below that bound.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(candidate: int) -> bool:
    """Return True iff ``candidate`` is prime.

    Deterministic for every value this library can meaningfully use.
    """
    if candidate < 2:
        return False
    for p in _MR_WITNESSES:
        if candidate == p:
            return True
        if candidate % p == 0:
            return False
    if candidate >= _MR_LIMIT:
        raise FieldError(
            f"primality test is only deterministic below {_MR_LIMIT}; "
            f"got {candidate}"
        )
    # Write candidate - 1 as d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for witness in _MR_WITNESSES:
        x = pow(witness, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


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

