"""Tests for bivariate polynomials — the SVSS dealer's object."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.svss_output import from_rows

from repro.errors import PolynomialError
from repro.field.gf import Field
from repro.poly.bivariate import BivariatePolynomial, masking_polynomial

F13 = Field(13)
F = Field()


def random_bivar(t: int, seed: int, secret: int | None = None) -> BivariatePolynomial:
    return BivariatePolynomial.random(F13, t, random.Random(seed), secret=secret)


class TestBasics:
    def test_secret_is_constant_coeff(self):
        f = random_bivar(2, 0, secret=9)
        assert f.secret == 9
        assert f(0, 0) == 9

    def test_rejects_nonsquare(self):
        with pytest.raises(PolynomialError):
            BivariatePolynomial(F13, [[1, 2], [3]])

    def test_rejects_empty(self):
        with pytest.raises(PolynomialError):
            BivariatePolynomial(F13, [])

    def test_immutable(self):
        f = random_bivar(1, 0)
        with pytest.raises(PolynomialError):
            f.coeffs = ()

    def test_equality(self):
        assert random_bivar(2, 5) == random_bivar(2, 5)
        assert random_bivar(2, 5) != random_bivar(2, 6)

    def test_evaluation_against_naive(self):
        f = random_bivar(2, 3)
        for x in range(5):
            for y in range(5):
                naive = sum(
                    f.coeffs[i][j] * pow(x, i) * pow(y, j)
                    for i in range(3)
                    for j in range(3)
                ) % 13
                assert f(x, y) == naive


class TestRowsAndColumns:
    """g_j(y) = f(j, y) and h_j(x) = f(x, j) — the dealer's row/column split."""

    @settings(max_examples=25)
    @given(seed=st.integers(0, 1000), j=st.integers(0, 12), v=st.integers(0, 12))
    def test_row_matches_evaluation(self, seed, j, v):
        f = random_bivar(2, seed)
        assert f.row(j)(v) == f(j, v)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 1000), j=st.integers(0, 12), v=st.integers(0, 12))
    def test_column_matches_evaluation(self, seed, j, v):
        f = random_bivar(2, seed)
        assert f.column(j)(v) == f(v, j)

    def test_cross_consistency(self):
        """h_k(l) = f(l, k) = g_l(k) — the pairwise check of SVSS R step 3."""
        f = random_bivar(3, 7)
        for k in range(1, 6):
            for l in range(1, 6):
                assert f.column(k)(l) == f.row(l)(k)

    def test_row_zero_of_secret(self):
        f = random_bivar(2, 1, secret=5)
        assert f.row(0)(0) == 5
        assert f.column(0)(0) == 5


class TestFromRows:
    """The test-side ``f̄`` from ``t + 1`` rows (``tests/reference/
    svss_output.py``, the reference R is held to) against this module."""

    def test_roundtrip(self):
        f = random_bivar(2, 11, secret=4)
        rows = [(k, f.row(k).coeffs) for k in (1, 3, 5)]
        assert BivariatePolynomial(F13, from_rows(13, 2, rows)) == f

    def test_wrong_row_count_rejected(self):
        f = random_bivar(2, 11)
        with pytest.raises(ValueError):
            from_rows(13, 2, [(1, f.row(1).coeffs)])

    def test_duplicate_rows_rejected(self):
        f = random_bivar(1, 11)
        with pytest.raises(ValueError):
            from_rows(13, 1, [(1, f.row(1).coeffs), (1, f.row(1).coeffs)])

    def test_overdegree_row_rejected(self):
        bad = (1, 2, 3)  # degree 2 > t=1
        with pytest.raises(ValueError):
            from_rows(13, 1, [(1, bad), (2, bad)])

    @settings(max_examples=20)
    @given(seed=st.integers(0, 500))
    def test_roundtrip_property(self, seed):
        f = random_bivar(2, seed)
        rows = [(k, f.row(k).coeffs) for k in (2, 4, 7)]
        assert BivariatePolynomial(F13, from_rows(13, 2, rows)) == f


class TestAlgebra:
    def test_add(self):
        a, b = random_bivar(1, 1), random_bivar(1, 2)
        c = a + b
        for x in range(4):
            for y in range(4):
                assert c(x, y) == (a(x, y) + b(x, y)) % 13

    def test_scale(self):
        a = random_bivar(1, 1)
        assert a.scale(2)(3, 4) == (2 * a(3, 4)) % 13

    def test_add_mismatched_degree_rejected(self):
        with pytest.raises(PolynomialError):
            random_bivar(1, 1) + random_bivar(2, 1)


class TestMaskingPolynomial:
    """The constructive hiding witness: q vanishes on the corrupt rows and
    columns and has q(0,0) = 1."""

    def test_vanishes_on_corrupt(self):
        q = masking_polynomial(F13, 3, [2, 5])
        assert q(0, 0) == 1
        for j in (2, 5):
            for v in range(13):
                assert q(j, v) == 0
                assert q(v, j) == 0

    def test_masking_preserves_corrupt_view(self):
        """f' = f + (s' - s) q deals a different secret with the same view
        for the corrupt set — the information-theoretic hiding proof."""
        t = 2
        corrupt = [1, 3]
        f = BivariatePolynomial.random(F13, t, random.Random(0), secret=4)
        q = masking_polynomial(F13, t, corrupt)
        for s_prime in range(13):
            g = f + q.scale((s_prime - 4) % 13)
            assert g.secret == s_prime
            for j in corrupt:
                assert g.row(j) == f.row(j)
                assert g.column(j) == f.column(j)

    def test_empty_corrupt_set(self):
        q = masking_polynomial(F13, 2, [])
        assert q(0, 0) == 1

    def test_too_many_corrupt_rejected(self):
        with pytest.raises(PolynomialError):
            masking_polynomial(F13, 1, [1, 2])

    def test_zero_index_rejected(self):
        with pytest.raises(PolynomialError):
            masking_polynomial(F13, 2, [0])

    def test_duplicates_rejected(self):
        with pytest.raises(PolynomialError):
            masking_polynomial(F13, 2, [1, 1])
