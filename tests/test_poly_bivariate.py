"""The SVSS dealer's bivariate polynomial, held as values.

The dealer draws a degree-(t, t) ``f(x, y)`` with ``f(0, 0) = s`` and keeps
only what it sends: process ``j``'s row ``g_j(y) = f(j, y)`` and column
``h_j(x) = f(x, j)`` at the nodes ``1..t+1``.  A receiver holds ``g_j`` and
``h_j`` as value rows over ``0..n``, and R step 3 reads ``f̄`` off ``t + 1``
rows through a basis looked up by pid mask.  Each is held here to the
dealer's coefficients, drawn again from its stream, and to the textbook
algebra of ``tests/reference/svss_output.py``.
"""

from __future__ import annotations

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.svss_output import evaluate, from_rows, horner, interpolate

from repro.config import SystemConfig
from repro.core.api import build_stack
from repro.core.sessions import svss_session

PRIME = 13


@cache
def stack_of(n: int, seed: int = 0):
    return build_stack(SystemConfig(n=n, prime=PRIME, seed=seed))


def deal(stack, secret: int, tag: object):
    """Share one SVSS session (dealer 1) without running the network; the
    dealer's ``_row_cache[j]`` is the body process ``j`` is sent."""
    sid = svss_session(("deal", tag), 1)
    if sid not in stack.vss[1].svss:
        stack.vss[1].svss_share(sid, secret)
    return sid, stack.vss[1].svss[sid]._row_cache


def deliver(stack, pid: int, sid: tuple, body: object, src: int = 1):
    """Process ``pid`` receives a ``"rows"`` body from ``src``."""
    stack.vss[pid]._on_private(src, ("v", sid, "rows", body))
    return stack.vss[pid].svss.get(sid)


@cache
def dealt(n: int, secret: int, tag: object):
    """Every process of a cached stack holding its row and column:
    ``(config, sid, {pid: (g, h)})``."""
    stack = stack_of(n)
    sid, cache_ = deal(stack, secret, tag)
    held = {}
    for j in stack.config.pids:
        inst = deliver(stack, j, sid, cache_[j])
        held[j] = inst.g, inst.h
    return stack.config, sid, held


def redraw(cfg: SystemConfig, sid: tuple, secret: int):
    """The dealer's coefficients: ``[i][k]`` multiplies ``x^i y^k``, drawn
    row by row, ``a_00 = s`` pinned after."""
    rng = cfg.derive_rng("svss-deal", sid)
    coeffs = [cfg.field.random_elements(rng, cfg.t + 1) for _ in range(cfg.t + 1)]
    coeffs[0][0] = secret
    return coeffs


def matrix(cfg: SystemConfig, held) -> list[list[int]]:
    """``[x][y] == f(x, y)`` for ``x, y`` in ``0..n``, from the held rows
    (``x >= 1``) and the columns' values at 0 (``x = 0``)."""
    top = [held[y][1][0] for y in cfg.pids]  # f(0, y) = h_y(0)
    return [[fit(cfg, top), *top], *(list(held[x][0]) for x in cfg.pids)]


def fit(cfg: SystemConfig, values) -> int | None:
    """The degree-t fit through ``(j, values[j - 1])``, ``j`` in ``1..n``,
    read at 0 by the product's own check (``VSSManager.fit``)."""
    got = stack_of(cfg.n).vss[1].fit(cfg.pids, list(values), (0,))
    return None if got is None else got[0]


def degree_t(cfg: SystemConfig, line) -> bool:
    """``line`` (values at ``0..n``) lies on a polynomial of degree <= t."""
    return fit(cfg, line[1:]) == line[0]


class TestBasics:
    @pytest.mark.parametrize("n", [4, 7])
    def test_secret_is_constant_coeff(self, n):
        cfg, _, held = dealt(n, 9, "secret")
        assert fit(cfg, [held[j][0][0] for j in cfg.pids]) == 9  # f(j, 0)

    @pytest.mark.parametrize(
        "shape",
        ["short part", "long part", "non-element", "lists", "one part", "three parts"],
    )
    def test_malformed_rows_ignored(self, shape):
        stack = build_stack(SystemConfig(n=4, prime=PRIME))
        sid, cache_ = deal(stack, 5, "malformed")
        g, h = cache_[2]
        body = {
            "short part": (g[:-1], h),
            "long part": (g, h + (0,)),
            "non-element": (g, (PRIME,) + h[1:]),
            "lists": (list(g), list(h)),
            "one part": (g,),
            "three parts": (g, h, h),
        }[shape]
        inst = deliver(stack, 2, sid, body)
        assert inst.g is None and inst.h is None
        assert stack.vss[2].mw == {}  # no step-2 participation
        # A garbled body does not use up the dealer's one delivery.
        assert deliver(stack, 2, sid, (g, h)).g[1:3] == g

    def test_rows_from_non_dealer_ignored(self):
        stack = build_stack(SystemConfig(n=4, prime=PRIME))
        sid, cache_ = deal(stack, 5, "forged")
        assert deliver(stack, 2, sid, cache_[2], src=3).g is None
        assert stack.vss[2].mw == {}

    def test_second_rows_ignored(self):
        stack = build_stack(SystemConfig(n=4, prime=PRIME))
        sid, cache_ = deal(stack, 5, "twice")
        first = deliver(stack, 2, sid, cache_[2])
        g, h = first.g, first.h
        deliver(stack, 2, sid, cache_[3])
        assert (first.g, first.h) == (g, h)

    def test_rows_are_tuples(self):
        cfg, _, held = dealt(4, 1, "tuples")
        for g, h in held.values():
            assert type(g) is tuple and type(h) is tuple
            assert len(g) == len(h) == cfg.n + 1

    @pytest.mark.parametrize("n", [4, 7])
    def test_evaluation_against_naive(self, n):
        """The dealer's two batched passes hand out f(j, 1..t+1) and
        f(1..t+1, j), summed term by term."""
        stack = stack_of(n)
        cfg = stack.config
        sid, cache_ = deal(stack, 7, "naive")
        coeffs = redraw(cfg, sid, 7)
        grid = range(1, cfg.t + 2)

        def naive(x, y):
            return sum(
                coeffs[i][k] * x**i * y**k
                for i in range(cfg.t + 1)
                for k in range(cfg.t + 1)
            ) % PRIME

        for j in cfg.pids:
            assert cache_[j] == (
                tuple(naive(j, y) for y in grid),
                tuple(naive(x, j) for x in grid),
            )

    def test_deterministic(self):
        _, a = deal(stack_of(4), 3, "same")
        assert deal(build_stack(SystemConfig(n=4, prime=PRIME)), 3, "same")[1] == a
        assert deal(stack_of(4, seed=1), 3, "same")[1] != a
        assert deal(stack_of(4), 3, "other")[1] != a


class TestRowsAndColumns:
    """g_j(y) = f(j, y) and h_j(x) = f(x, j) — the dealer's row/column split,
    as every process holds it over 0..n."""

    @pytest.mark.parametrize("n", [4, 7])
    def test_row_matches_evaluation(self, n):
        cfg, sid, held = dealt(n, 2, "rows")
        coeffs = redraw(cfg, sid, 2)
        for j, (g, _) in held.items():
            assert g == tuple(evaluate(PRIME, coeffs, j, y) for y in range(n + 1))

    @pytest.mark.parametrize("n", [4, 7])
    def test_column_matches_evaluation(self, n):
        cfg, sid, held = dealt(n, 2, "rows")
        coeffs = redraw(cfg, sid, 2)
        for j, (_, h) in held.items():
            assert h == tuple(evaluate(PRIME, coeffs, x, j) for x in range(n + 1))

    def test_cross_consistency(self):
        """h_k(l) = f(l, k) = g_l(k) — the pairwise check of SVSS R step 3."""
        cfg, _, held = dealt(7, 11, "cross")
        for k in cfg.pids:
            for l in cfg.pids:
                assert held[k][1][l] == held[l][0][k]

    def test_row_zero_of_secret(self):
        cfg, _, held = dealt(7, 5, "zero")
        assert fit(cfg, [held[j][1][0] for j in cfg.pids]) == 5  # f(0, j)


class TestFromRows:
    """f̄ from t + 1 rows: R step 3 reads f̄(k, l) as the head basis' λ(k)
    row times the head rows' values at l."""

    @staticmethod
    def f_bar(cfg: SystemConfig, held, head, k: int, l: int) -> int:
        mask = sum(1 << h for h in head)
        lam = stack_of(cfg.n).vss[1].basis(mask).evaluation_row(k)
        return sum(c * held[h][0][l] for c, h in zip(lam, head)) % PRIME

    def test_roundtrip(self):
        cfg, sid, held = dealt(4, 4, "from-rows")
        coeffs = redraw(cfg, sid, 4)
        for k in range(cfg.n + 1):
            for l in range(cfg.n + 1):
                assert self.f_bar(cfg, held, (1, 3), k, l) == evaluate(PRIME, coeffs, k, l)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from((4, 7)), st.data())
    def test_roundtrip_property(self, n, data):
        cfg, _, held = dealt(n, 8, "from-rows-any")
        size = cfg.t + 1
        head = sorted(data.draw(st.sets(st.sampled_from(cfg.pids), min_size=size, max_size=size)))
        reference = matrix(cfg, held)
        for k in range(n + 1):
            for l in range(n + 1):
                assert self.f_bar(cfg, held, head, k, l) == reference[k][l]

    def test_reference_from_rows_recovers_the_draw(self):
        """The test-side ``from_rows`` (what ``tests/reference/svss_output.py``
        builds f̄ with) gives back the dealer's coefficient matrix, not its
        transpose."""
        cfg, sid, held = dealt(7, 6, "reference")
        grid = range(1, cfg.t + 2)
        rows = [(k, interpolate(PRIME, [(y, held[k][0][y]) for y in grid])) for k in (2, 4, 7)]
        assert from_rows(PRIME, cfg.t, rows) == redraw(cfg, sid, 6)


class TestAlgebra:
    """Sums and multiples of dealings are dealings — every row and column
    still has degree t."""

    def test_add(self):
        cfg, _, a = dealt(7, 3, "add-a")
        _, _, b = dealt(7, 12, "add-b")
        total = [
            [(x + y) % PRIME for x, y in zip(ra, rb)]
            for ra, rb in zip(matrix(cfg, a), matrix(cfg, b))
        ]
        assert total[0][0] == (3 + 12) % PRIME
        for line in (*total, *zip(*total)):
            assert degree_t(cfg, line)

    def test_scale(self):
        cfg, _, a = dealt(7, 3, "add-a")
        scaled = [[5 * v % PRIME for v in row] for row in matrix(cfg, a)]
        assert scaled[0][0] == 15 % PRIME
        for line in (*scaled, *zip(*scaled)):
            assert degree_t(cfg, line)


class TestMaskingPolynomial:
    """The constructive hiding witness on the dealer's values: q(x, y) =
    u(x) u(y), u of degree <= t with u(0) = 1 and u(j) = 0 on the corrupt
    set, vanishes on every corrupt row and column, so f + δq deals s + δ
    with the same corrupt view — and passes every degree check."""

    @pytest.mark.parametrize(
        "n,corrupt",
        [(4, (3,)), (4, (4,)), (7, (3, 5)), (7, (2, 7)), (7, (6, 7))],
        ids=["n4-3", "n4-4", "n7-3-5", "n7-2-7", "n7-6-7"],
    )
    def test_masked_dealing_passes_every_check(self, n, corrupt):
        cfg, _, held = dealt(n, 4, "mask")
        f = matrix(cfg, held)
        u = interpolate(PRIME, [(0, 1), *((j, 0) for j in corrupt)])
        u_at = [horner(PRIME, u, x) for x in range(n + 1)]
        for delta in range(PRIME):
            alt = [
                [(v + delta * u_at[x] * u_at[y]) % PRIME for y, v in enumerate(row)]
                for x, row in enumerate(f)
            ]
            assert alt[0][0] == (4 + delta) % PRIME
            for j in corrupt:
                assert alt[j] == f[j]
                assert [row[j] for row in alt] == [row[j] for row in f]
            for line in (*alt, *zip(*alt)):
                assert degree_t(cfg, line)

    def test_t_plus_one_rows_determine_the_secret(self):
        """The bound is tight: t + 1 processes' rows fix f(0, 0), and no
        witness of degree <= t vanishes on t + 1 of them."""
        cfg, _, held = dealt(7, 10, "tight")
        group = (2, 5, 6)
        mask = sum(1 << j for j in group)
        zero = stack_of(7).vss[1].basis(mask).evaluation_row(0)
        assert sum(c * held[j][0][0] for c, j in zip(zero, group)) % PRIME == 10
        u = interpolate(PRIME, [(0, 1), *((j, 0) for j in group)])
        assert len(u) == cfg.t + 2 and u[-1] != 0
