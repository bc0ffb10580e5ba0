"""Univariate polynomials as the product holds them: values, not objects.

``src/`` has no polynomial class.  A degree-``t`` polynomial travels as its
values ``f(1..t+1)`` and is held as its *value row* ``f(0..n)``
(:func:`repro.core.mwsvss.value_rows`); the MW-SVSS dealer keeps only the
share columns it sent, ``cols[x] = (f_1(x), ..., f_n(x))``; interpolation is a cached Lagrange basis
(:mod:`repro.poly.fastpath`); and the reconstruct's degree-``t`` check is
:meth:`VSSManager.fit`.  Each is held here to the textbook Lagrange and
Horner of ``tests/reference/svss_output.py``.
"""

from __future__ import annotations

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.svss_output import horner, interpolate, interpolate_degree_t

from repro.config import SystemConfig
from repro.core.api import build_stack
from repro.core.mwsvss import point, value_rows
from repro.core.sessions import mw_session
from repro.errors import PolynomialError
from repro.field.gf import Field
from repro.poly.fastpath import (
    evaluate_many,
    interpolate_values,
    interpolate_values_rows,
    lagrange_basis,
)

F13 = Field(13)
F = Field(2**31 - 1)

#: A small prime (wraps often) and a large one.
PRIMES = (13, 2**31 - 1)


@st.composite
def value_row_cases(draw):
    """``(field, n, t, coeffs)``: a polynomial of degree ``<= t`` with
    ``t + 1 <= n`` nodes and ``n < prime``."""
    prime = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 12))
    t = draw(st.integers(0, n - 1))
    element = st.integers(0, prime - 1)
    coeffs = draw(st.lists(element, min_size=t + 1, max_size=t + 1))
    return Field(prime), n, t, coeffs


def body_of(prime: int, coeffs, t: int) -> tuple[int, ...]:
    """The wire body of a polynomial: its values at the nodes ``1..t+1``."""
    return tuple(horner(prime, coeffs, x) for x in range(1, t + 2))


def everywhere(prime: int, coeffs, n: int) -> tuple[int, ...]:
    return tuple(horner(prime, coeffs, x) for x in range(n + 1))


class TestBasics:
    """A value row is ``f(0..n)``, decoded from the body ``f(1..t+1)``."""

    @settings(max_examples=200, deadline=None)
    @given(value_row_cases())
    def test_value_rows_match_horner(self, case):
        field, n, t, coeffs = case
        prime = field.prime
        (row,) = value_rows(field, n, t, [body_of(prime, coeffs, t)])
        assert row == everywhere(prime, coeffs, n)

    def test_evaluation_horner(self):
        # p(x) = 3 + 2x + x^2 over GF(13): 3, 6, 11, 18, 27 at 0..4
        (row,) = value_rows(F13, 4, 2, [(6, 11, 5)])
        assert row == (3, 6, 11, 5, 1)

    def test_body_is_kept_at_the_nodes(self):
        body = (9, 4, 2)
        (row,) = value_rows(F13, 7, 2, [body])
        assert row[1:4] == body
        assert len(row) == 8

    def test_rows_are_tuples(self):
        rows = value_rows(F, 7, 2, [(1, 2, 3), (4, 5, 6)])
        assert all(type(row) is tuple for row in rows)

    def test_batch_matches_one_by_one(self):
        bodies = [(1, 2), (0, 0), (12, 5), (7, 7)]
        assert value_rows(F13, 6, 1, bodies) == [
            value_rows(F13, 6, 1, [body])[0] for body in bodies
        ]

    def test_empty_batch(self):
        assert value_rows(F, 4, 1, []) == []

    def test_constant(self):
        (row,) = value_rows(F13, 9, 2, [(7, 7, 7)])
        assert row == (7,) * 10

    def test_zero_polynomial(self):
        (row,) = value_rows(F, 10, 3, [(0, 0, 0, 0)])
        assert row == (0,) * 11

    def test_no_tail_when_the_nodes_cover_every_pid(self):
        coeffs = [5, 1, 9]
        (row,) = value_rows(F13, 3, 2, [body_of(13, coeffs, 2)])
        assert row == everywhere(13, coeffs, 3)


class TestAlgebra:
    """Decoding and interpolation are linear in the values — the masking
    argument and the coin's sums of shared secrets rely on nothing else."""

    @settings(max_examples=100, deadline=None)
    @given(value_row_cases(), st.data())
    def test_add_pointwise(self, case, data):
        field, n, t, a = case
        prime = field.prime
        b = data.draw(st.lists(st.integers(0, prime - 1), min_size=t + 1, max_size=t + 1))
        rows = value_rows(field, n, t, [body_of(prime, a, t), body_of(prime, b, t)])
        summed = [(x + y) % prime for x, y in zip(a, b)]
        (row,) = value_rows(field, n, t, [body_of(prime, summed, t)])
        assert row == tuple((x + y) % prime for x, y in zip(*rows))

    def test_scale(self):
        coeffs = [3, 0, 8]
        (row,) = value_rows(F13, 6, 2, [body_of(13, coeffs, 2)])
        (scaled,) = value_rows(F13, 6, 2, [tuple(5 * v % 13 for v in body_of(13, coeffs, 2))])
        assert scaled == tuple(5 * v % 13 for v in row)

    def test_sub_self_is_zero(self):
        body = body_of(F.prime, [11, 22, 33], 2)
        (row,) = value_rows(F, 5, 2, [tuple((v - v) % F.prime for v in body)])
        assert row == (0,) * 6

    def test_interpolation_is_linear(self):
        xs = [2, 3, 5, 7]
        a, b = [1, 5, 9, 12], [4, 4, 0, 10]
        summed = [(x + y) % 13 for x, y in zip(a, b)]
        assert interpolate_values(F13, xs, summed) == [
            (x + y) % 13
            for x, y in zip(interpolate_values(F13, xs, a), interpolate_values(F13, xs, b))
        ]

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 3),
        st.lists(st.integers(0, 12), min_size=4, max_size=4),
        st.lists(st.integers(0, 12), min_size=4, max_size=4),
    )
    def test_mul_pointwise(self, t, a, b):
        """The product of two degree-t polynomials, known only by its values
        at 2t + 1 nodes, interpolates to the coefficient convolution."""
        a, b = a[: t + 1], b[: t + 1]
        product = [0] * (2 * t + 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                product[i + j] = (product[i + j] + x * y) % 13
        xs = list(range(1, 2 * t + 2))
        ys = [horner(13, a, x) * horner(13, b, x) % 13 for x in xs]
        assert interpolate_values(F13, xs, ys) == product


class TestInterpolation:
    """``interpolate_values`` / ``interpolate_values_rows`` and the basis'
    evaluation rows."""

    def test_roundtrip_exact(self):
        coeffs = [3, 1, 4]
        xs = (1, 2, 3)
        assert interpolate_values(F13, xs, evaluate_many(F13, coeffs, xs)) == coeffs

    @settings(max_examples=50, deadline=None)
    @given(
        coeffs=st.lists(st.integers(0, 12), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_roundtrip_property(self, coeffs, data):
        xs = data.draw(
            st.lists(st.integers(0, 12), min_size=len(coeffs), max_size=12, unique=True)
        )
        padded = coeffs + [0] * (len(xs) - len(coeffs))
        assert interpolate_values(F13, xs, evaluate_many(F13, coeffs, xs)) == padded

    def test_degree_strips_trailing_zeros(self):
        # 1 + 2x through four nodes: the cubic and quadratic terms are zero
        xs = (1, 4, 6, 9)
        assert interpolate_values(F13, xs, evaluate_many(F13, [1, 2], xs)) == [1, 2, 0, 0]

    def test_coeffs_reduced(self):
        assert interpolate_values(F13, [1, 2], [14, -1]) == interpolate(
            13, [(1, 1), (2, 12)]
        )

    def test_single_point(self):
        assert interpolate_values(F13, [5], [7]) == [7]

    def test_rejects_duplicates(self):
        with pytest.raises(PolynomialError):
            interpolate_values(F13, [1, 1], [2, 3])
        with pytest.raises(PolynomialError):
            interpolate_values_rows(F13, [1, 14], [[2, 3]])

    def test_rejects_empty(self):
        with pytest.raises(PolynomialError):
            interpolate_values(F13, [], [])

    def test_rows_match_one_by_one(self):
        xs = [1, 3, 4]
        rows = [[1, 2, 3], [0, 0, 0], [12, 11, 10], [5, 0, 5]]
        assert interpolate_values_rows(F13, xs, rows) == [
            interpolate_values(F13, xs, ys) for ys in rows
        ]

    def test_rows_empty_batch(self):
        assert interpolate_values_rows(F13, [1, 2], []) == []

    def test_rows_wrong_length_rejected(self):
        with pytest.raises(PolynomialError):
            interpolate_values_rows(F13, [1, 2], [[1, 2], [1, 2, 3]])

    def test_interpolate_at_zero_matches(self):
        """R' reads f̄_l(0) as the λ(0)-row dot product of its senders'
        basis; it is the free term of the textbook fit."""
        coeffs = [123456, 789, 42]
        xs = (1, 5, 9)
        ys = evaluate_many(F, coeffs, xs)
        zero = lagrange_basis(F, xs).evaluation_row(0)
        assert sum(y * lam for y, lam in zip(ys, zero)) % F.prime == coeffs[0]

    def test_evaluation_row_is_unit_at_nodes(self):
        xs = (2, 3, 7, 11)
        basis = lagrange_basis(F13, xs)
        for i, x in enumerate(xs):
            assert basis.evaluation_row(x) == tuple(int(j == i) for j in range(len(xs)))

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(PRIMES),
        st.lists(st.integers(1, 12), min_size=1, max_size=12, unique=True),
        st.integers(0, 2**31 - 2),
    )
    def test_evaluation_rows_sum_to_one(self, prime, xs, x):
        """Partition of unity: the interpolant of the constant 1 is 1."""
        row = lagrange_basis(Field(prime), xs).evaluation_row(x % prime)
        assert sum(row) % prime == 1


@cache
def stack_of(n: int, prime: int, seed: int = 0):
    return build_stack(SystemConfig(n=n, prime=prime, seed=seed))


def deal(n: int, secret: int, tag: object = 0, prime: int = 13, seed: int = 0):
    """The MW-SVSS dealer (1, moderator 2) right after ``share``: its
    columns ``[x][l - 1] == f_l(x)`` for x, l in 1..n."""
    return share_on(stack_of(n, prime, seed), secret, tag)


def sub_rows(inst) -> list[tuple[int, ...]]:
    """``f_l(1..n)`` for l in 1..n, read off the dealer's columns."""
    return list(zip(*inst._deal_rows[1:]))


def shares_of_f(inst) -> list[int]:
    """``f(l) = f_l(0)`` for l in 1..n: each sub-polynomial's free term."""
    return [point(inst.manager.field, inst.manager.t, row, 0) for row in sub_rows(inst)]


def share_on(stack, secret: int, tag: object):
    sid = mw_session(("deal", tag), 1, 2, "dm")
    if sid not in stack.vss[1].mw:
        stack.vss[1].mw_share(sid, secret)
    return stack.vss[1].mw[sid]


class TestRandom:
    """The MW-SVSS dealer's ``f`` and ``f_1..f_n``, kept as the share
    columns it sent: ``f_l(0) = f(l)`` and ``f(0)`` are read back through
    :func:`point`."""

    def test_constant_term_pinned(self):
        for tag, secret in enumerate((0, 9, 12, 13 + 3)):
            inst = deal(4, secret, ("pin", tag))
            f = shares_of_f(inst)
            assert point(inst.manager.field, inst.manager.t, f, 0) == secret % 13

    @pytest.mark.parametrize("n", [4, 7])
    def test_sub_constant_terms_are_the_shares(self, n):
        """The free terms ``f_l(0)`` lie on one degree-``t`` ``f`` with
        ``f(0) = s``: all n + 1 points, not just t + 1 of them."""
        inst = deal(n, 5, "subs")
        points = [(0, 5), *enumerate(shares_of_f(inst), start=1)]
        assert interpolate_degree_t(13, points, inst.manager.t) is not None

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_rows_have_degree_t(self, n):
        inst = deal(n, 6, "degree")
        t = stack_of(n, 13).config.t
        assert len(inst._deal_rows) == n + 1 and inst._deal_rows[0] is None
        assert all(len(col) == n for col in inst._deal_rows[1:])
        for row in sub_rows(inst):
            assert interpolate_degree_t(13, list(enumerate(row, start=1)), t) is not None

    @pytest.mark.parametrize("n", [4, 7])
    def test_rows_are_the_redrawn_polynomials(self, n):
        """Low degree first, f's coefficients before f_1's before f_2's,
        each constant term pinned after its draw."""
        inst = deal(n, 4, "redraw")
        cfg = stack_of(n, 13).config
        rng = cfg.derive_rng("mw-deal", inst.sid)
        f = cfg.field.random_elements(rng, cfg.t + 1)
        f[0] = 4
        subs = [cfg.field.random_elements(rng, cfg.t + 1) for _ in cfg.pids]
        for l, sub in zip(cfg.pids, subs):
            sub[0] = horner(13, f, l)
        assert sub_rows(inst) == [everywhere(13, sub, n)[1:] for sub in subs]
        assert shares_of_f(inst) == list(everywhere(13, f, n)[1:])

    def test_deterministic_given_rng(self):
        a = deal(4, 3, "same")._deal_rows
        assert deal(4, 3, "same", seed=1)._deal_rows != a
        assert deal(4, 3, "other")._deal_rows != a
        fresh = build_stack(SystemConfig(n=4, prime=13))
        assert share_on(fresh, 3, "same")._deal_rows == a

    def test_random_sharing_is_uniform_at_nonzero_points(self):
        """With a pinned secret, f(1) and the share f_2(1) are uniform —
        the heart of the hiding argument."""
        stack = build_stack(SystemConfig(n=4, prime=13))
        shares, subs = [0] * 13, [0] * 13
        for i in range(2600):
            inst = share_on(stack, 5, ("uniform", i))
            shares[shares_of_f(inst)[0]] += 1  # f(1) = f_1(0)
            subs[inst._deal_rows[1][1]] += 1  # f_2(1)
        # Each bucket expects 200; allow generous slack.
        assert all(120 < c < 290 for c in shares), shares
        assert all(120 < c < 290 for c in subs), subs


@cache
def manager(n: int, t: int, prime: int = 13):
    """Process 1's ``VSSManager`` of an ``(n, t)`` system over GF(prime)."""
    return build_stack(SystemConfig(n=n, t=t, prime=prime)).vss[1]


class TestInterpolateDegreeT:
    """``VSSManager.fit``: the degree-t check of R' step 4 and R step 2."""

    def test_accepts_consistent_overdetermined(self):
        coeffs = [2, 3]  # degree 1
        pids = range(1, 6)
        ys = [horner(13, coeffs, x) for x in pids]
        assert manager(5, 1).fit(pids, ys, range(6)) == list(everywhere(13, coeffs, 5))

    def test_rejects_inconsistent(self):
        coeffs = [2, 3]
        ys = [horner(13, coeffs, x) for x in range(1, 5)]
        ys.append((horner(13, coeffs, 5) + 1) % 13)
        assert manager(5, 1).fit(range(1, 6), ys, (0,)) is None

    def test_rejects_too_few_points(self):
        assert manager(5, 1).fit([1], [1], (0,)) is None
        assert manager(5, 1).fit([], [], (0,)) is None

    def test_rejects_higher_degree(self):
        ys = [x * x % 13 for x in range(1, 5)]  # x^2
        assert manager(5, 1).fit(range(1, 5), ys, (0,)) is None

    def test_exactly_t_plus_one_points(self):
        coeffs = [7, 8, 9]
        pids = (2, 5, 11)
        ys = [horner(13, coeffs, x) for x in pids]
        assert manager(12, 2).fit(pids, ys, range(13)) == list(everywhere(13, coeffs, 12))

    def test_values_at_points_off_the_pids(self):
        coeffs = [1, 10, 4]
        pids = (3, 4, 6, 9)
        ys = [horner(13, coeffs, x) for x in pids]
        points = (0, 1, 2, 5, 12)
        assert manager(12, 2).fit(pids, ys, points) == [horner(13, coeffs, x) for x in points]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_verdict_does_not_depend_on_the_head(self, n, data):
        """``fit`` takes the lowest t + 1 points as its head; the reference
        fitted through the highest t + 1 gives ⊥ exactly as often."""
        t = data.draw(st.integers(0, n - 1))
        pids = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
        coeffs = data.draw(st.lists(st.integers(0, 12), min_size=1, max_size=t + 2))
        ys = [horner(13, coeffs, x) for x in pids]
        for i in data.draw(st.sets(st.sampled_from(range(len(pids))), max_size=2)):
            ys[i] = (ys[i] + data.draw(st.integers(1, 12))) % 13
        got = manager(n, t).fit(pids, ys, (0,))
        reversed_points = list(zip(pids, ys))[::-1]
        fitted = interpolate_degree_t(13, reversed_points, t)
        assert (got is None) == (fitted is None)
        if fitted is not None:
            assert got == [fitted[0]]
