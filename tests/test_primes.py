"""Tests for primality testing and prime selection."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.field.primes import default_prime, is_prime, next_prime


class TestIsPrime:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
            assert is_prime(p), p

    def test_small_composites(self):
        for c in (0, 1, 4, 6, 8, 9, 15, 21, 25, 27, 33, 35, 49):
            assert not is_prime(c), c

    def test_negative(self):
        assert not is_prime(-7)

    def test_default_prime_is_prime(self):
        for n in (1, 4, 250, 251, 1000):
            assert is_prime(default_prime(n))

    def test_mersenne_61(self):
        """Trial division stops at 2³²: a larger candidate, even a prime,
        is refused by name rather than tested."""
        assert is_prime(2**31 - 1)
        with pytest.raises(FieldError, match=str(2**32)):
            is_prime(2**61 - 1)

    def test_carmichael_numbers_rejected(self):
        # Fermat pseudoprimes that fool naive tests.
        for c in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not is_prime(c), c

    def test_agrees_with_sieve(self):
        limit = 2000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                for j in range(i * i, limit, i):
                    sieve[j] = False
        for k in range(limit):
            assert is_prime(k) == sieve[k], k


class TestNextPrime:
    def test_from_small(self):
        assert next_prime(0) == 2
        assert next_prime(2) == 2
        assert next_prime(3) == 3
        assert next_prime(4) == 5
        assert next_prime(14) == 17

    @given(st.integers(min_value=2, max_value=100_000))
    def test_result_is_prime_and_minimal(self, floor):
        p = next_prime(floor)
        assert p >= floor
        assert is_prime(p)
        assert not any(is_prime(q) for q in range(max(2, floor), p))
