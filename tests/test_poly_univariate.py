"""Tests for univariate polynomials and interpolation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.svss_output import interpolate_degree_t

from repro.errors import PolynomialError
from repro.field.gf import Field
from repro.poly.univariate import (
    Polynomial,
    interpolate_at_zero,
    lagrange_interpolate,
)

F13 = Field(13)
F = Field()


class TestBasics:
    def test_degree_strips_trailing_zeros(self):
        p = Polynomial(F13, [1, 2, 0, 0])
        assert p.degree == 1
        assert p.coeffs == (1, 2)

    def test_zero_polynomial(self):
        z = Polynomial.zero(F13)
        assert z.degree == -1
        assert z.is_zero()
        assert z(5) == 0

    def test_constant(self):
        c = Polynomial.constant(F13, 7)
        assert c.degree == 0
        assert c(100) == 7

    def test_coeffs_reduced(self):
        p = Polynomial(F13, [14, -1])
        assert p.coeffs == (1, 12)

    def test_evaluation_horner(self):
        # p(x) = 3 + 2x + x^2 over GF(13)
        p = Polynomial(F13, [3, 2, 1])
        assert p(0) == 3
        assert p(1) == 6
        assert p(2) == (3 + 4 + 4) % 13

    def test_evaluate_many(self):
        p = Polynomial(F13, [1, 1])
        assert p.evaluate_many([0, 1, 2]) == [1, 2, 3]

    def test_immutable(self):
        p = Polynomial(F13, [1])
        with pytest.raises(PolynomialError):
            p.coeffs = (2,)

    def test_equality_and_hash(self):
        assert Polynomial(F13, [1, 2]) == Polynomial(F13, [1, 2, 0])
        assert Polynomial(F13, [1, 2]) != Polynomial(F13, [2, 1])
        assert len({Polynomial(F13, [1]), Polynomial(F13, [1])}) == 1


class TestAlgebra:
    def test_add(self):
        a = Polynomial(F13, [1, 2, 3])
        b = Polynomial(F13, [12, 1])
        assert (a + b).coeffs == (0, 3, 3)

    def test_sub_self_is_zero(self):
        a = Polynomial(F13, [5, 6, 7])
        assert (a - a).is_zero()

    def test_mul(self):
        # (1 + x)(1 - x) = 1 - x^2
        a = Polynomial(F13, [1, 1])
        b = Polynomial(F13, [1, 12])
        assert (a * b).coeffs == (1, 0, 12)

    def test_mul_by_zero(self):
        a = Polynomial(F13, [1, 1])
        assert (a * Polynomial.zero(F13)).is_zero()

    def test_scale(self):
        a = Polynomial(F13, [1, 2])
        assert a.scale(3).coeffs == (3, 6)
        assert a.scale(0).is_zero()

    def test_cross_field_rejected(self):
        with pytest.raises(PolynomialError):
            Polynomial(F13, [1]) + Polynomial(Field(17), [1])

    @given(
        st.lists(st.integers(0, 12), min_size=0, max_size=5),
        st.lists(st.integers(0, 12), min_size=0, max_size=5),
        st.integers(0, 12),
    )
    def test_add_pointwise(self, ca, cb, x):
        a, b = Polynomial(F13, ca), Polynomial(F13, cb)
        assert (a + b)(x) == F13.add(a(x), b(x))

    @given(
        st.lists(st.integers(0, 12), min_size=0, max_size=4),
        st.lists(st.integers(0, 12), min_size=0, max_size=4),
        st.integers(0, 12),
    )
    def test_mul_pointwise(self, ca, cb, x):
        a, b = Polynomial(F13, ca), Polynomial(F13, cb)
        assert (a * b)(x) == F13.mul(a(x), b(x))


class TestRandom:
    def test_constant_term_pinned(self):
        rng = random.Random(0)
        for _ in range(20):
            p = Polynomial.random(F13, 3, rng, constant_term=9)
            assert p(0) == 9
            assert p.degree <= 3

    def test_deterministic_given_rng(self):
        a = Polynomial.random(F, 4, random.Random(5))
        b = Polynomial.random(F, 4, random.Random(5))
        assert a == b

    def test_negative_degree_rejected(self):
        with pytest.raises(PolynomialError):
            Polynomial.random(F13, -1, random.Random(0))

    def test_random_sharing_is_uniform_at_nonzero_points(self):
        """With a pinned secret, values at x != 0 are uniform — the heart of
        the hiding argument."""
        rng = random.Random(42)
        counts = [0] * 13
        for _ in range(2600):
            p = Polynomial.random(F13, 1, rng, constant_term=5)
            counts[p(1)] += 1
        # Each bucket expects 200; allow generous slack.
        assert all(120 < c < 290 for c in counts), counts


class TestInterpolation:
    def test_roundtrip_exact(self):
        p = Polynomial(F13, [3, 1, 4])
        points = [(x, p(x)) for x in (1, 2, 3)]
        assert lagrange_interpolate(F13, points) == p

    def test_rejects_duplicates(self):
        with pytest.raises(PolynomialError):
            lagrange_interpolate(F13, [(1, 2), (1, 3)])

    def test_rejects_empty(self):
        with pytest.raises(PolynomialError):
            lagrange_interpolate(F13, [])

    def test_single_point(self):
        p = lagrange_interpolate(F13, [(5, 7)])
        assert p(5) == 7
        assert p.degree <= 0

    @settings(max_examples=50)
    @given(
        coeffs=st.lists(st.integers(0, 12), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_roundtrip_property(self, coeffs, data):
        p = Polynomial(F13, coeffs)
        degree_bound = max(len(coeffs), 1)
        xs = data.draw(
            st.lists(
                st.integers(0, 12),
                min_size=degree_bound,
                max_size=degree_bound,
                unique=True,
            )
        )
        points = [(x, p(x)) for x in xs]
        assert lagrange_interpolate(F13, points) == p

    def test_interpolate_at_zero_matches(self):
        p = Polynomial(F, [123456, 789, 42])
        points = [(x, p(x)) for x in (1, 5, 9)]
        assert interpolate_at_zero(F, points) == p(0)

    def test_interpolate_at_zero_duplicate_rejected(self):
        with pytest.raises(PolynomialError):
            interpolate_at_zero(F13, [(1, 1), (1, 2)])


class TestInterpolateDegreeT:
    """The test-side degree-t fit (``tests/reference/svss_output.py``, the
    reference R is held to) against this module's polynomials."""

    def test_accepts_consistent_overdetermined(self):
        p = Polynomial(F13, [2, 3])  # degree 1
        points = [(x, p(x)) for x in (1, 2, 3, 4, 5)]
        got = interpolate_degree_t(13, points, t=1)
        assert Polynomial(F13, got) == p

    def test_rejects_inconsistent(self):
        p = Polynomial(F13, [2, 3])
        points = [(x, p(x)) for x in (1, 2, 3, 4)]
        points.append((5, (p(5) + 1) % 13))
        assert interpolate_degree_t(13, points, t=1) is None

    def test_rejects_too_few_points(self):
        assert interpolate_degree_t(13, [(1, 1)], t=1) is None

    def test_rejects_higher_degree(self):
        p = Polynomial(F13, [0, 0, 1])  # x^2
        points = [(x, p(x)) for x in (1, 2, 3, 4)]
        assert interpolate_degree_t(13, points, t=1) is None

    def test_exactly_t_plus_one_points(self):
        p = Polynomial(F13, [7, 8, 9])
        points = [(x, p(x)) for x in (2, 5, 11)]
        assert Polynomial(F13, interpolate_degree_t(13, points, t=2)) == p
