"""Property tests for the algebra fast path (repro.poly.fastpath).

The fast path must be *observationally identical* to textbook Lagrange
interpolation — the protocol's correctness proofs assume exact field
arithmetic, so every cached shortcut is checked here against a naive
reference implementation kept local to this file, and evaluation against
the barycentric form of ``tests/reference/barycentric.py``.
"""

from __future__ import annotations

import sys
import time
from functools import cache
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import barycentric, svss_output

import repro.poly.fastpath as fastpath
from repro.config import SystemConfig, max_faults
from repro.core.api import build_stack, flip_common_coin
from repro.errors import FieldError, PolynomialError
from repro.field.gf import Field
from repro.poly.fastpath import (
    EVAL_ROW_CACHE,
    batch_inverse,
    evaluate_many,
    interpolate_values,
    lagrange_basis,
    power_table,
)
from repro.poly.bivariate import BivariatePolynomial
from repro.poly.univariate import (
    Polynomial,
    interpolate_at_zero,
    lagrange_interpolate,
)
from repro.sim.scheduler import FifoScheduler

F = Field()  # default prime
F13 = Field(13)
SMALL_PRIME = 10_007
FS = Field(SMALL_PRIME)


def naive_lagrange(field: Field, points) -> Polynomial:
    """The seed implementation: per-point basis build + Fermat inversions."""
    prime = field.prime
    result = Polynomial.zero(field)
    for i, (x_i, y_i) in enumerate(points):
        if y_i % prime == 0:
            continue
        basis = Polynomial.constant(field, 1)
        denom = 1
        for j, (x_j, _) in enumerate(points):
            if j == i:
                continue
            basis = basis * Polynomial(field, [(-x_j) % prime, 1])
            denom = (denom * (x_i - x_j)) % prime
        result = result + basis.scale(field.div(y_i, denom))
    return result


def random_points(field: Field, count: int, rng: Random, include_zero=False):
    pool = list(range(field.prime if field.prime < 4096 else 4096))
    xs = rng.sample(pool[1:], count)
    if include_zero and count > 1:
        xs[rng.randrange(count)] = 0
    return [(x, rng.randrange(field.prime)) for x in xs]


class TestBarycentricVsNaive:
    @pytest.mark.parametrize("field", [F, F13, FS])
    def test_interpolation_matches_naive(self, field):
        rng = Random(7)
        for count in range(1, 9):
            if count >= field.prime:
                continue
            for _ in range(10):
                points = random_points(field, count, rng, include_zero=True)
                assert lagrange_interpolate(field, points) == naive_lagrange(
                    field, points
                )

    def test_interpolate_values_matches_point_form(self):
        rng = Random(11)
        xs = [3, 9, 1, 6]
        ys = [rng.randrange(F.prime) for _ in xs]
        assert interpolate_values(F, xs, ys) == lagrange_interpolate(
            F, list(zip(xs, ys))
        )

    def test_duplicate_x_rejected(self):
        with pytest.raises(PolynomialError):
            lagrange_interpolate(F13, [(1, 2), (1, 3)])
        with pytest.raises(PolynomialError):
            # duplicates only after reduction into the field
            lagrange_basis(F13, (1, 14))

    def test_empty_rejected(self):
        with pytest.raises(PolynomialError):
            lagrange_interpolate(F13, [])
        with pytest.raises(PolynomialError):
            lagrange_basis(F13, ())

    def test_barycentric_evaluation_matches_polynomial(self):
        rng = Random(3)
        p = Polynomial.random(F, 5, rng)
        xs = [1, 2, 4, 8, 16, 32]
        ys = p.evaluate_many(xs)
        basis = lagrange_basis(F, xs)
        # off-node, on-node, and zero all agree with the coefficient form
        for x in [0, 3, 5, 7, 2, 32, 100]:
            assert basis.evaluate(ys, x) == p(x)
        assert basis.evaluate_at_zero(ys) == p(0)
        assert interpolate_at_zero(F, list(zip(xs, ys))) == p(0)

    def test_verify_points(self):
        rng = Random(5)
        p = Polynomial.random(F, 3, rng)
        xs = [1, 2, 3, 4]
        ys = p.evaluate_many(xs)
        basis = lagrange_basis(F, xs)
        good = [(x, p(x)) for x in (5, 6, 0, 2)]
        assert basis.verify_points(ys, good)
        assert basis.verify_points(ys, [])
        bad = good[:2] + [(7, p(7) + 1)]
        assert not basis.verify_points(ys, bad)
        # on-node mismatch is also caught
        assert not basis.verify_points(ys, [(2, ys[1] + 1)])


#: A small prime (node sets ⊆ {1..12} stay distinct) and the default one.
PROPERTY_PRIMES = (13, 2**31 - 1)


@cache
def manager(n: int, t: int, prime: int):
    """Process 1's ``VSSManager`` of an ``(n, t)`` system over GF(prime)."""
    return build_stack(SystemConfig(n=n, t=t, prime=prime)).vss[1]


@st.composite
def node_sets(draw):
    """``(field, n, nodes)``: nodes a non-empty subset of ``{1..n}``."""
    prime = draw(st.sampled_from(PROPERTY_PRIMES))
    n = draw(st.integers(1, min(16, prime - 1)))
    nodes = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    return Field(prime), n, nodes


@st.composite
def evaluation_cases(draw):
    """Values on a node set and points in ``{0..n}``, on the nodes, or
    anywhere in the field."""
    field, n, nodes = draw(node_sets())
    element = st.integers(0, field.prime - 1)
    ys = draw(st.lists(element, min_size=len(nodes), max_size=len(nodes)))
    point = st.one_of(st.integers(0, n), st.sampled_from(nodes), element)
    points = draw(st.lists(point, max_size=2 * n + 2))
    return field, nodes, ys, points


class TestEvaluationRows:
    @settings(max_examples=300, deadline=None)
    @given(evaluation_cases(), st.data())
    def test_matches_barycentric_reference(self, case, data):
        field, nodes, ys, points = case
        prime = field.prime
        basis = lagrange_basis(field, nodes)
        expected = barycentric.evaluate_many_at(prime, nodes, ys, points)
        assert basis.evaluate_many_at(ys, points) == expected
        for x, value in zip(points, expected):
            assert basis.evaluate(ys, x) == value
        # verify_points over claims that are right, wrong, or off by p
        claims = [
            (x, data.draw(st.sampled_from([v, v + prime, (v + 1) % prime])))
            for x, v in zip(points, expected)
        ]
        assert basis.verify_points(ys, claims) == barycentric.verify_points(
            prime, nodes, ys, claims
        )

    @settings(max_examples=300, deadline=None)
    @given(node_sets(), st.data())
    def test_step4_value_is_the_reference_fit_at_zero(self, case, data):
        """R' step 4 (``VSSManager.fit`` over the sorted ``M̂``, head basis
        looked up by pid mask) reads the reference's coefficient fit at 0,
        and ⊥ exactly when the reference finds no degree-t fit."""
        field, n, monitors = case
        prime = field.prime
        t = data.draw(st.integers(0, n))
        coeffs = data.draw(st.lists(st.integers(0, prime - 1), max_size=t + 2))
        monitors = sorted(monitors)
        values = Polynomial(field, coeffs).evaluate_many(monitors)
        bent = data.draw(st.sets(st.sampled_from(range(len(monitors)))))
        for i in bent:
            values[i] = (values[i] + data.draw(st.integers(1, prime - 1))) % prime
        fitted = svss_output.interpolate_degree_t(prime, list(zip(monitors, values)), t)
        got = manager(n, t, prime).fit(monitors, values, (0,))
        assert (got is None) == (fitted is None)
        if fitted is not None:
            assert got == [fitted[0]]

    def test_cached_rows_are_bounded(self):
        field = Field(SMALL_PRIME)
        basis = lagrange_basis(field, (1, 2, 3))
        ys = [4, 9, 1]
        points = range(SMALL_PRIME - 2 * EVAL_ROW_CACHE, SMALL_PRIME)
        assert basis.evaluate_many_at(ys, points) == barycentric.evaluate_many_at(
            SMALL_PRIME, (1, 2, 3), ys, points
        )
        assert len(basis._eval_rows) <= EVAL_ROW_CACHE

    def test_wrong_value_count_rejected(self):
        basis = lagrange_basis(F13, (1, 2, 3))
        for call in (
            lambda: basis.evaluate_many_at([1, 2], [0]),
            lambda: basis.evaluate([1, 2, 3, 4], 0),
            lambda: basis.verify_points([1], [(0, 1)]),
        ):
            with pytest.raises(PolynomialError):
                call()


class TestNoInversionOnTheCoinPath:
    def test_warm_coin_never_inverts_and_mwsvss_never_runs_horner(self, monkeypatch):
        """Once a first coin has built the bases, a second same-seed coin
        makes no ``batch_inverse`` call (hence no ``pow()``), and MW-SVSS
        evaluates no ``Polynomial`` by Horner's rule: its received
        polynomials are value rows and R' step 4 a dot product."""
        cfg = SystemConfig(n=4, seed=1000)
        first, _ = flip_common_coin(cfg, scheduler=FifoScheduler())
        inversions = []
        real_inverse = fastpath.batch_inverse

        def counted_inverse(field, values):
            inversions.append(len(values))
            return real_inverse(field, values)

        horner_callers = []
        real_call = Polynomial.__call__

        def traced_call(self, x):
            horner_callers.append(sys._getframe(1).f_globals["__name__"])
            return real_call(self, x)

        monkeypatch.setattr(fastpath, "batch_inverse", counted_inverse)
        monkeypatch.setattr(Polynomial, "__call__", traced_call)
        second, _ = flip_common_coin(cfg, scheduler=FifoScheduler())
        assert second.outputs == first.outputs
        assert inversions == []
        assert "repro.core.mwsvss" not in horner_callers

    def test_fault_free_coin_builds_no_polynomial(self, monkeypatch):
        """Every polynomial of the stack — the dealers' ``f`` and ``f_l``,
        SVSS's bivariate ``f``, a process' ``g_j`` / ``h_j``, the R and R'
        fits — is only evaluated at points of ``{0..n}``, so a coin keeps
        them all as values: it constructs no ``Polynomial`` and no
        ``BivariatePolynomial``."""
        built = []
        for cls in (Polynomial, BivariatePolynomial):
            real_init = cls.__init__

            def counted_init(self, *args, _real=real_init, **kwargs):
                built.append(type(self).__name__)
                _real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted_init)
        result, _ = flip_common_coin(SystemConfig(n=4, seed=1000))
        assert set(result.outputs) == {1, 2, 3, 4}
        assert built == []


class TestBatchInverse:
    def test_matches_field_inv(self):
        rng = Random(13)
        for field in (F, F13, FS):
            values = [rng.randrange(1, field.prime) for _ in range(40)]
            assert batch_inverse(field, values) == [field.inv(v) for v in values]

    def test_empty_batch(self):
        assert batch_inverse(F, []) == []

    def test_zero_raises_like_field_inv(self):
        with pytest.raises(FieldError):
            batch_inverse(F13, [1, 0, 5])
        with pytest.raises(FieldError):
            batch_inverse(F13, [13])  # zero after reduction

    def test_non_canonical_inputs(self):
        p = F13.prime
        assert batch_inverse(F13, [p + 2, -1]) == [F13.inv(2), F13.inv(p - 1)]


class TestCacheSemantics:
    def test_cache_hit_across_field_instances_same_prime(self):
        a, b = Field(SMALL_PRIME), Field(SMALL_PRIME)
        assert a is not b
        xs = (1, 2, 3)
        assert lagrange_basis(a, xs) is lagrange_basis(b, xs)
        ys = [5, 9, 2]
        assert (
            interpolate_values(a, xs, ys).coeffs
            == interpolate_values(b, xs, ys).coeffs
        )

    def test_distinct_primes_do_not_collide(self):
        xs = (1, 2, 3)
        assert lagrange_basis(F13, xs) is not lagrange_basis(FS, xs)
        ys = [7, 7, 12]
        got13 = interpolate_values(F13, xs, ys)
        gotS = interpolate_values(FS, xs, ys)
        assert got13.field.prime == 13 and gotS.field.prime == SMALL_PRIME
        assert got13 == naive_lagrange(F13, list(zip(xs, ys)))
        assert gotS == naive_lagrange(FS, list(zip(xs, ys)))

    def test_canonicalised_nodes_share_an_entry(self):
        assert lagrange_basis(F13, (1, 2)) is lagrange_basis(F13, (14, 15))

    def test_power_table_shared_and_correct(self):
        t1 = power_table(Field(SMALL_PRIME), 3)
        t2 = power_table(Field(SMALL_PRIME), 3)
        assert t1 is t2
        assert t1.up_to(6)[:6] == [pow(3, k, SMALL_PRIME) for k in range(6)]


class TestEvaluateMany:
    def test_matches_horner(self):
        rng = Random(17)
        for degree in (0, 1, 4, 9):
            p = Polynomial.random(F, degree, rng)
            xs = [rng.randrange(F.prime) for _ in range(12)] + [0, 1]
            assert p.evaluate_many(xs) == [p(x) for x in xs]

    def test_zero_polynomial(self):
        assert Polynomial.zero(F).evaluate_many([0, 1, 2]) == [0, 0, 0]
        assert evaluate_many(F, (), [5, 6]) == [0, 0]

    def test_non_canonical_points(self):
        p = Polynomial(F13, [1, 1])
        assert p.evaluate_many([13, 14, -1]) == [1, 2, 0]


class TestInterpolateDegreeT:
    """``VSSManager.fit``: the degree-t check of R' step 4 and R step 2."""

    def test_tail_verification_passes_and_fails(self):
        rng = Random(23)
        p = Polynomial.random(F, 2, rng)
        pids = range(1, 7)
        ys = p.evaluate_many(pids)
        fit = manager(6, 2, F.prime).fit
        assert fit(pids, ys, range(7)) == p.evaluate_many(range(7))
        bad = ys[:5] + [(ys[5] + 1) % F.prime]
        assert fit(pids, bad, range(7)) is None

    def test_too_few_points(self):
        assert manager(4, 1, 13).fit([1], [1], (0,)) is None


class TestTimingGuard:
    def test_interpolation_stays_fast_at_n13(self):
        """Interpolating 50 random degree-t polynomials at n=13 must stay
        well under a generous wall-clock bound — a loud tripwire against
        regressions back to per-call basis construction or O(t^3) paths."""
        n = 13
        t = max_faults(n)
        rng = Random(29)
        xs = list(range(1, t + 2))
        lagrange_basis(F, xs)  # warm the cache, as protocol runs do
        start = time.perf_counter()
        for _ in range(50):
            p = Polynomial.random(F, t, rng)
            ys = p.evaluate_many(xs)
            q = interpolate_values(F, xs, ys)
            assert q == p
        elapsed = time.perf_counter() - start
        assert elapsed < 0.25, (
            f"50 degree-{t} interpolations took {elapsed:.3f}s; the cached "
            "fast path should finish in milliseconds"
        )
