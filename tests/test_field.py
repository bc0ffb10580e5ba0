"""Unit and property tests for GF(p) arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.field.gf import Field

ELEMENTS = st.integers(min_value=0, max_value=12)
F13 = Field(13)


class TestConstruction:
    def test_modulus_is_required(self):
        # the default modulus is the system's (SystemConfig derives it from n)
        with pytest.raises(TypeError):
            Field()

    def test_rejects_composite(self):
        with pytest.raises(FieldError):
            Field(12)

    def test_rejects_one_and_zero(self):
        with pytest.raises(FieldError):
            Field(1)
        with pytest.raises(FieldError):
            Field(0)

    def test_immutable(self):
        f = Field(13)
        with pytest.raises(FieldError):
            f.prime = 17

    def test_equality_by_modulus(self):
        assert Field(13) == Field(13)
        assert Field(13) != Field(17)
        assert Field(13) != "GF(13)"

    def test_hashable(self):
        assert len({Field(13), Field(13), Field(17)}) == 2

    def test_size(self):
        assert Field(13).size == 13

    def test_repr_mentions_prime(self):
        assert "13" in repr(Field(13))


class TestArithmetic:
    def test_add_wraps(self, small_field):
        assert small_field.add(7, 8) == 2

    def test_sub_wraps(self, small_field):
        assert small_field.sub(3, 7) == 9

    def test_neg(self, small_field):
        assert small_field.neg(5) == 8
        assert small_field.neg(0) == 0

    def test_mul_wraps(self, small_field):
        assert small_field.mul(5, 6) == 4  # 30 mod 13

    def test_inverse(self, small_field):
        for a in range(1, 13):
            assert small_field.mul(a, small_field.inv(a)) == 1

    def test_inverse_of_zero_raises(self, small_field):
        with pytest.raises(FieldError):
            small_field.inv(0)

    def test_div(self, small_field):
        assert small_field.mul(small_field.div(7, 3), 3) == 7

    def test_div_by_zero_raises(self, small_field):
        with pytest.raises(FieldError):
            small_field.div(7, 0)

    def test_pow_negative_exponent(self, small_field):
        a = 5
        assert small_field.pow(a, -1) == small_field.inv(a)
        assert small_field.pow(a, -2) == small_field.inv(small_field.mul(a, a))

    def test_sum(self, small_field):
        assert small_field.sum([12, 12, 12]) == 36 % 13

    def test_element_reduces(self, small_field):
        assert small_field.element(-1) == 12
        assert small_field.element(13) == 0

    def test_is_element(self, small_field):
        assert small_field.is_element(0)
        assert small_field.is_element(12)
        assert not small_field.is_element(13)
        assert not small_field.is_element(-1)
        assert not small_field.is_element("3")
        assert not small_field.is_element(2.0)

    def test_check_passes_and_raises(self, small_field):
        assert small_field.check(5) == 5
        with pytest.raises(FieldError):
            small_field.check(13)


class TestFieldAxioms:
    """Property-based field axioms over GF(13)."""

    @given(a=ELEMENTS, b=ELEMENTS)
    def test_addition_commutes(self, a, b):
        assert F13.add(a, b) == F13.add(b, a)

    @given(a=ELEMENTS, b=ELEMENTS, c=ELEMENTS)
    def test_addition_associates(self, a, b, c):
        left = F13.add(F13.add(a, b), c)
        right = F13.add(a, F13.add(b, c))
        assert left == right

    @given(a=ELEMENTS, b=ELEMENTS)
    def test_multiplication_commutes(self, a, b):
        assert F13.mul(a, b) == F13.mul(b, a)

    @given(a=ELEMENTS, b=ELEMENTS, c=ELEMENTS)
    def test_distributivity(self, a, b, c):
        left = F13.mul(a, F13.add(b, c))
        right = F13.add(F13.mul(a, b), F13.mul(a, c))
        assert left == right

    @given(a=ELEMENTS)
    def test_additive_inverse(self, a):
        assert F13.add(a, F13.neg(a)) == 0

    @given(a=ELEMENTS.filter(lambda x: x != 0))
    def test_multiplicative_inverse(self, a):
        assert F13.mul(a, F13.inv(a)) == 1

    @given(a=ELEMENTS)
    def test_identity_elements(self, a):
        assert F13.add(a, 0) == a
        assert F13.mul(a, 1) == a

    @settings(max_examples=25)
    @given(a=ELEMENTS, e=st.integers(min_value=0, max_value=50))
    def test_pow_matches_repeated_mul(self, a, e):
        acc = 1
        for _ in range(e):
            acc = F13.mul(acc, a)
        assert F13.pow(a, e) == acc


class TestRandomness:
    def test_random_element_in_range(self, small_field):
        import random

        rng = random.Random(0)
        for value in small_field.random_elements(rng, 100):
            assert small_field.is_element(value)

    def test_random_elements_deterministic(self, small_field):
        import random

        a = small_field.random_elements(random.Random(7), 20)
        b = small_field.random_elements(random.Random(7), 20)
        assert a == b

    def test_random_elements_cover_field(self, small_field):
        import random

        seen = set(small_field.random_elements(random.Random(3), 500))
        assert seen == set(range(13))
