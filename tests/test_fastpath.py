"""Property tests for the algebra fast path (repro.poly.fastpath).

The fast path must be *observationally identical* to textbook Lagrange
interpolation — the protocol's correctness proofs assume exact field
arithmetic, so every cached shortcut is checked here against the textbook
Lagrange and Horner of ``tests/reference/svss_output.py``, and evaluation
against the barycentric form of ``tests/reference/barycentric.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from functools import cache
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import barycentric, svss_output
from reference.svss_output import horner

import repro.poly.fastpath as fastpath
from repro.config import SystemConfig, max_faults
from repro.core.api import build_stack, flip_common_coin
from repro.errors import FieldError, PolynomialError
from repro.field.gf import Field
from repro.poly.fastpath import (
    EVAL_ROW_CACHE,
    batch_inverse,
    evaluate_many,
    evaluate_rows,
    interpolate_values,
    lagrange_basis,
    power_table,
)
from repro.sim.scheduler import FifoScheduler

F = Field(2**31 - 1)
F13 = Field(13)
SMALL_PRIME = 10_007
FS = Field(SMALL_PRIME)


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
                xs = [x for x, _ in points]
                ys = [y for _, y in points]
                coeffs = lagrange_basis(field, xs).interpolate_coeffs(ys)
                assert coeffs == svss_output.interpolate(field.prime, points)
                assert [horner(field.prime, coeffs, x) for x in xs] == ys

    def test_interpolate_values_matches_point_form(self):
        rng = Random(11)
        xs = [3, 9, 1, 6]
        ys = [rng.randrange(F.prime) for _ in xs]
        assert interpolate_values(F, xs, ys) == svss_output.interpolate(
            F.prime, list(zip(xs, ys))
        )

    def test_duplicate_x_rejected(self):
        with pytest.raises(PolynomialError):
            lagrange_basis(F13, (1, 1))
        with pytest.raises(PolynomialError):
            # duplicates only after reduction into the field
            lagrange_basis(F13, (1, 14))

    def test_empty_rejected(self):
        with pytest.raises(PolynomialError):
            lagrange_basis(F13, ())

    def test_evaluation_rows_match_horner(self):
        coeffs = F.random_elements(Random(3), 6)
        xs = [1, 2, 4, 8, 16, 32]
        ys = [horner(F.prime, coeffs, x) for x in xs]
        basis = lagrange_basis(F, xs)
        # off-node, on-node, and zero all agree with the coefficient form
        points = [0, 3, 5, 7, 2, 32, 100]
        assert basis.evaluate_many_at(ys, points) == [
            horner(F.prime, coeffs, x) for x in points
        ]


#: A small prime (node sets ⊆ {1..12} stay distinct) and a large one.
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
    @given(evaluation_cases())
    def test_matches_barycentric_reference(self, case):
        field, nodes, ys, points = case
        basis = lagrange_basis(field, nodes)
        expected = barycentric.evaluate_many_at(field.prime, nodes, ys, points)
        assert basis.evaluate_many_at(ys, points) == expected

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
        values = [horner(prime, coeffs, x) for x in monitors]
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
            lambda: basis.interpolate_coeffs([1, 2, 3, 4]),
        ):
            with pytest.raises(PolynomialError):
                call()


class TestNoInversionOnTheCoinPath:
    def test_warm_coin_never_inverts(self, monkeypatch):
        """Once a first coin has built the bases, a second same-seed coin
        makes no ``batch_inverse`` call (hence no ``pow()``): every value
        it reads is a dot product with a cached evaluation row."""
        cfg = SystemConfig(n=4, seed=1000)
        first, _ = flip_common_coin(cfg, scheduler=FifoScheduler())
        inversions = []
        real_inverse = fastpath.batch_inverse

        def counted_inverse(field, values):
            inversions.append(len(values))
            return real_inverse(field, values)

        monkeypatch.setattr(fastpath, "batch_inverse", counted_inverse)
        second, _ = flip_common_coin(cfg, scheduler=FifoScheduler())
        assert second.outputs == first.outputs
        assert inversions == []


DEFAULT_RUNS = """
import sys
from repro.config import SystemConfig
from repro.core.api import flip_common_coin, run_byzantine_agreement
coin, _ = flip_common_coin(SystemConfig(n=4, seed=3))
agreement = run_byzantine_agreement([0, 1, 1, 0], SystemConfig(n=4, seed=5), coin="svss")
print(agreement.agreed, "numpy" in sys.modules, "repro.field.backend" in sys.modules)
"""


def test_default_runs_never_import_numpy():
    """A fresh process runs an n = 4 coin and agreement on the pure rows
    and imports neither numpy nor the inert probe shim ``repro.field.backend``."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", DEFAULT_RUNS],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False", "False"]


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
        assert interpolate_values(a, xs, ys) == interpolate_values(b, xs, ys)

    def test_distinct_primes_do_not_collide(self):
        xs = (1, 2, 3)
        assert lagrange_basis(F13, xs) is not lagrange_basis(FS, xs)
        ys = [7, 7, 12]
        points = list(zip(xs, ys))
        assert interpolate_values(F13, xs, ys) == svss_output.interpolate(13, points)
        assert interpolate_values(FS, xs, ys) == svss_output.interpolate(
            SMALL_PRIME, points
        )

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
            coeffs = F.random_elements(rng, degree + 1)
            xs = [rng.randrange(F.prime) for _ in range(12)] + [0, 1]
            assert evaluate_many(F, coeffs, xs) == [
                horner(F.prime, coeffs, x) for x in xs
            ]

    def test_zero_polynomial(self):
        assert evaluate_many(F, [0], [0, 1, 2]) == [0, 0, 0]
        assert evaluate_many(F, (), [5, 6]) == [0, 0]

    def test_non_canonical_points(self):
        assert evaluate_many(F13, [1, 1], [13, 14, -1]) == [1, 2, 0]


@st.composite
def dealer_cases(draw):
    """Coefficient rows (ragged and empty ones included) and points, both
    inside and outside ``[0, p)``; the points are sometimes the dealers'
    ``range(n + 1)`` / ``range(1, n + 1)``."""
    prime = draw(st.sampled_from(PROPERTY_PRIMES))
    value = st.one_of(st.integers(0, prime - 1), st.integers(-3 * prime, 3 * prime))
    rows = draw(st.lists(st.lists(value, max_size=6), max_size=8))
    n = draw(st.integers(0, 10))
    xs = draw(
        st.one_of(
            st.sampled_from((range(n + 1), range(1, n + 1))),
            st.lists(value, max_size=10),
        )
    )
    return Field(prime), rows, xs


class TestDealerKernel:
    """``evaluate_rows`` and ``evaluate_many`` — the dealers' pure kernel on
    memoised power rows — against Horner, cell for cell."""

    @settings(max_examples=300, deadline=None)
    @given(dealer_cases())
    def test_matches_horner(self, case):
        field, rows, xs = case
        prime = field.prime
        expected = [[horner(prime, coeffs, x) for x in xs] for coeffs in rows]
        # Twice: the second call reads the memoised power rows.
        for _ in range(2):
            assert evaluate_rows(field, rows, xs) == expected
            for coeffs, row in zip(rows, expected):
                assert evaluate_many(field, coeffs, xs) == row
                assert evaluate_many(field, coeffs, iter(xs)) == row

    def test_memo_is_bounded(self):
        for offset in range(2 * fastpath.POWER_ROWS_CACHE):
            xs = range(offset, offset + 3)
            assert evaluate_rows(FS, [[1, 2, 3]], xs) == [
                [horner(SMALL_PRIME, [1, 2, 3], x) for x in xs]
            ]
        assert len(fastpath._POWER_ROWS) <= fastpath.POWER_ROWS_CACHE


class TestInterpolateDegreeT:
    """``VSSManager.fit``: the degree-t check of R' step 4 and R step 2."""

    def test_tail_verification_passes_and_fails(self):
        coeffs = F.random_elements(Random(23), 3)
        pids = range(1, 7)
        ys = [horner(F.prime, coeffs, x) for x in pids]
        fit = manager(6, 2, F.prime).fit
        assert fit(pids, ys, range(7)) == [horner(F.prime, coeffs, x) for x in range(7)]
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
            coeffs = F.random_elements(rng, t + 1)
            ys = evaluate_many(F, coeffs, xs)
            assert interpolate_values(F, xs, ys) == coeffs
        elapsed = time.perf_counter() - start
        assert elapsed < 0.25, (
            f"50 degree-{t} interpolations took {elapsed:.3f}s; the cached "
            "fast path should finish in milliseconds"
        )
