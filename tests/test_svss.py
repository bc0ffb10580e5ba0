"""Integration tests for SVSS (paper §4) against its §2.1 properties."""

from __future__ import annotations

import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import svss_output
from reference.svss_output import evaluate, interpolate

from repro.adversary.behaviors import (
    CrashBehavior,
    EquivocatingDealerBehavior,
    LyingReconstructorBehavior,
    MutatingBehavior,
    SilentBehavior,
)
from repro.adversary.controller import Adversary
from repro.config import SystemConfig, max_faults
from repro.core.api import build_stack, run_svss
from repro.core.mwsvss import BOTTOM
from repro.core.sessions import svss_session
from repro.core.svss import SVSSInstance, child_bit
from repro.sim.process import ENVELOPE_TAG
from repro.sim.scheduler import ExponentialDelayScheduler, TargetedDelayScheduler


class TestValidityOfTermination:
    """Property 1: an honest dealer's share completes everywhere."""

    @pytest.mark.parametrize("n", [4, 7])
    def test_share_completes(self, n):
        cfg = SystemConfig(n=n, seed=n)
        result, _ = run_svss(cfg, dealer=1, secret=42, reconstruct=False)
        assert result.share_completed == set(cfg.pids)

    @pytest.mark.parametrize("seed", range(3))
    def test_under_heavy_reordering(self, seed):
        cfg = SystemConfig(n=4, seed=seed)
        sched = ExponentialDelayScheduler(cfg.derive_rng("s"), mean=8.0)
        result, _ = run_svss(cfg, dealer=2, secret=7, reconstruct=False, scheduler=sched)
        assert result.share_completed == set(cfg.pids)


class TestValidity:
    """Property 4: honest dealer — every honest output is s, or a shun."""

    @pytest.mark.parametrize("n,secret", [(4, 0), (4, 99), (7, 123456)])
    def test_reconstructs_secret(self, n, secret):
        cfg = SystemConfig(n=n, prime=2**31 - 1, seed=n + secret)
        result, _ = run_svss(cfg, dealer=1, secret=secret)
        assert result.outputs == {pid: secret for pid in cfg.pids}

    @pytest.mark.parametrize("seed", range(3))
    def test_with_silent_process(self, seed):
        cfg = SystemConfig(n=4, seed=seed)
        adversary = Adversary({4: SilentBehavior()})
        result, _ = run_svss(cfg, dealer=1, secret=5, adversary=adversary)
        for pid in (1, 2, 3):
            assert result.outputs[pid] == 5

    @pytest.mark.parametrize("seed", range(3))
    def test_with_crash(self, seed):
        cfg = SystemConfig(n=4, seed=seed)
        adversary = Adversary({3: CrashBehavior(after_messages=100)})
        result, _ = run_svss(cfg, dealer=1, secret=5, adversary=adversary)
        for pid in (1, 2, 4):
            assert result.outputs[pid] == 5

    @pytest.mark.parametrize("seed", range(4))
    def test_validity_or_shun_with_lying_reconstructor(self, seed):
        cfg = SystemConfig(n=4, seed=seed)
        liar = 2
        adversary = Adversary({liar: LyingReconstructorBehavior(random.Random(seed))})
        result, _ = run_svss(cfg, dealer=1, secret=42, adversary=adversary)
        honest = [p for p in cfg.pids if p != liar]
        for pid in honest:
            if pid in result.outputs and result.outputs[pid] != 42:
                assert any(c == liar for _, c in result.trace.shun_pairs())


class TestBinding:
    """Property 3: even a faulty dealer is bound to a single value r once
    the first honest process completes the share — or a shun happens."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equivocating_dealer_binding_or_shun(self, seed):
        cfg = SystemConfig(n=4, seed=seed)
        dealer = 1
        adversary = Adversary({dealer: EquivocatingDealerBehavior(random.Random(seed))})
        result, _ = run_svss(cfg, dealer=dealer, secret=42, adversary=adversary)
        honest = [p for p in cfg.pids if p != dealer]
        outputs = {result.outputs[p] for p in honest if p in result.outputs}
        # Binding: all honest processes that produce an output agree —
        # BOTTOM included, since SVSS binding fixes one shared r — unless a
        # fresh shun pair appeared.
        if len(outputs) > 1:
            assert any(c == dealer for _, c in result.trace.shun_pairs())

    @pytest.mark.parametrize("seed", range(4))
    def test_mutating_dealer(self, seed):
        cfg = SystemConfig(n=4, seed=seed + 100)
        dealer = 3
        adversary = Adversary({dealer: MutatingBehavior(random.Random(seed), rate=0.25)})
        result, _ = run_svss(cfg, dealer=dealer, secret=9, adversary=adversary)
        honest = [p for p in cfg.pids if p != dealer]
        outputs = {result.outputs[p] for p in honest if p in result.outputs}
        if len(outputs) > 1:
            assert result.trace.shun_pairs()


class TestTermination:
    """Property 2: completion propagates; R completes if all begin it."""

    @pytest.mark.parametrize("seed", range(3))
    def test_straggler_catches_up(self, seed):
        cfg = SystemConfig(n=4, seed=seed)
        sched = TargetedDelayScheduler(
            ExponentialDelayScheduler(cfg.derive_rng("s"), mean=1.0),
            victims={2},
            factor=300.0,
        )
        result, _ = run_svss(cfg, dealer=1, secret=6, scheduler=sched)
        assert result.share_completed == set(cfg.pids)
        assert result.outputs == {pid: 6 for pid in cfg.pids}


def share_and_tap(cfg: SystemConfig, pids, secret: int):
    """Share one SVSS session (dealer 1, no reconstruct) to quiescence.
    Returns the ``"rows"`` body each of ``pids`` received from the dealer,
    as the runtime delivered it, the session id and the stack."""
    stack = build_stack(cfg)
    sid = svss_session(("solo-svss", 0), 1)
    views: dict[int, list] = {pid: [] for pid in pids}

    def tap(src, dst, payload):
        if src != 1 or dst not in views:
            return
        messages = payload[1] if payload[0] == ENVELOPE_TAG else (payload,)
        for message in messages:
            if message[:3] == ("v", sid, "rows"):
                views[dst].append(message[3])

    stack.runtime.delivery_tap = tap
    stack.vss[1].svss_share(sid, secret)
    stack.runtime.run_to_quiescence()
    return {pid: view[0] for pid, view in views.items()}, sid, stack


#: t corrupt processes, none of them the dealer (1).
CORRUPT = {4: (3,), 7: (3, 5)}


class TestHiding:
    """Property 5: before reconstruct, any t processes' joint view is
    consistent with every candidate secret (constructive proof)."""

    @pytest.mark.parametrize("n", [4, 7])
    def test_corrupt_rows_consistent_with_every_secret(self, n):
        cfg = SystemConfig(n=n, seed=5, prime=13)
        prime, t, secret = cfg.prime, cfg.t, 4
        corrupt = CORRUPT[n]
        views, sid, stack = share_and_tap(cfg, corrupt, secret)
        # The dealer's f, drawn again from its stream: coeffs[i][k]
        # multiplies x^i y^k, drawn row by row, a_00 = s pinned after.  The
        # corrupt processes received exactly their rows and columns (which
        # also pins the dealer's draw order).
        rng = cfg.derive_rng("svss-deal", sid)
        coeffs = [cfg.field.random_elements(rng, t + 1) for _ in range(t + 1)]
        coeffs[0][0] = secret
        grid = range(1, t + 2)
        everywhere = range(cfg.n + 1)
        for j in corrupt:
            row, col = views[j]
            assert row == tuple(evaluate(prime, coeffs, j, y) for y in grid)
            assert col == tuple(evaluate(prime, coeffs, x, j) for x in grid)
            inst = stack.vss[j].svss[sid]
            assert inst.g == tuple(evaluate(prime, coeffs, j, y) for y in everywhere)
            assert inst.h == tuple(evaluate(prime, coeffs, x, j) for x in everywhere)

        # q(x, y) = u(x) u(y) with u(0) = 1 and u(j) = 0 for every corrupt
        # j: q(0, 0) = 1, and q vanishes on every corrupt row and column.
        u = interpolate(prime, [(0, 1), *((j, 0) for j in corrupt)])
        u += [0] * (t + 1 - len(u))
        q = [[a * b % prime for b in u] for a in u]

        def view(f, j):
            """Process j's row f(j, ·) and column f(·, j) over the field."""
            points = range(prime)
            return [(evaluate(prime, f, j, v), evaluate(prime, f, v, j)) for v in points]

        for s_prime in range(prime):
            delta = s_prime - secret
            f_alt = [
                [(c + delta * d) % prime for c, d in zip(row, q_row)]
                for row, q_row in zip(coeffs, q)
            ]
            assert evaluate(prime, f_alt, 0, 0) == s_prime
            for j in corrupt:
                assert view(f_alt, j) == view(coeffs, j)

    def test_secret_values_uniform_across_seeds(self):
        counts = {}
        for seed in range(60):
            cfg = SystemConfig(n=4, seed=seed, prime=13)
            result, stack = run_svss(cfg, dealer=1, secret=5, reconstruct=False)
            inst = stack.vss[2].svss[result.session]
            key = inst.g[0]  # f(2, 0): one point of the corrupt view
            counts[key] = counts.get(key, 0) + 1
        assert max(counts.values()) < 18


@cache
def manager(n: int, prime: int):
    return build_stack(SystemConfig(n=n, prime=prime)).vss[1]


@st.composite
def output_matrices(draw):
    """``(n, prime, Ĝ, Ĝ-map, child outputs)``: a dealer's ``f`` as the
    children's outputs, or that matrix made inconsistent — ⊥ children, a
    perturbed entry, rows or columns of degree t + 1, or of degree t but
    taken from a second polynomial or from ``f`` transposed."""
    n = draw(st.sampled_from((4, 7)))
    prime = draw(st.sampled_from((13, 2**31 - 1)))
    t = max_faults(n)
    pids = range(1, n + 1)
    element = st.integers(0, prime - 1)

    def pid_set():
        return tuple(draw(st.permutations(pids))[: draw(st.integers(n - t, n))])

    def bivariate():
        """A degree-(t, t) f(x, y) as a function; [i][k] multiplies x^i y^k."""
        coeffs = draw(st.lists(element, min_size=(t + 1) ** 2, max_size=(t + 1) ** 2))
        rows = [coeffs[i * (t + 1) : (i + 1) * (t + 1)] for i in range(t + 1)]
        return lambda x, y: svss_output.evaluate(prime, rows, x, y)

    g_hat = pid_set()
    g_hat_map = {k: pid_set() for k in g_hat}
    f, f2 = bivariate(), bivariate()
    lift = draw(st.integers(1, prime - 1))
    sources = {
        "f": f,
        "transposed": lambda a, b: f(b, a),
        "second": f2,
        "degree t+1": lambda a, b: (f(a, b) + lift * pow(b, t + 1, prime)) % prime,
    }
    # At most t + 1 rows deviate, so honest outcomes stay common at n = 7.
    deviants = draw(st.sets(st.sampled_from(g_hat), max_size=t + 1))
    kinds = st.sampled_from(sorted(sources))
    outputs = {}
    for k in g_hat:
        row, col = sources["f"], sources["f"]
        if k in deviants:
            row, col = sources[draw(kinds)], sources[draw(kinds)]
        for l in g_hat_map[k]:
            outputs[k, l, "dm"] = row(k, l)  # g_k(l) = f(k, l)
            outputs[k, l, "md"] = col(l, k)  # h_k(l) = f(l, k)
    keys = sorted(outputs)
    for key in draw(st.sets(st.sampled_from(keys), max_size=2)):
        outputs[key] = BOTTOM
    if draw(st.booleans()):
        key = draw(st.sampled_from(keys))
        if outputs[key] is not BOTTOM:
            outputs[key] = (outputs[key] + draw(st.integers(1, prime - 1))) % prime
    return n, prime, g_hat, g_hat_map, outputs


class TestOutputMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(output_matrices())
    def test_value_matrix_output_equals_polynomial_reference(self, case):
        """R on value rows with mask-keyed bases gives the output and ``I_j``
        of the polynomial-object computation, and ⊥ exactly when it does."""
        n, prime, g_hat, g_hat_map, outputs = case
        mgr = manager(n, prime)
        sid = svss_session(("reference", 0), 1)
        inst = SVSSInstance(mgr, sid)
        inst.G_hat, inst.G_hat_map = g_hat, g_hat_map
        inst.mw_outputs = [None] * (2 * n * n)
        for (k, l, slot), value in outputs.items():
            inst.mw_outputs[child_bit(k, l, slot == "dm", n)] = value
        finished = []
        inst._finish = finished.append
        inst._compute_output()
        expected, ignored = svss_output.compute_output(
            prime, mgr.t, g_hat, g_hat_map, outputs, BOTTOM
        )
        assert finished == [expected]
        assert inst.ignored == ignored


class TestStructure:
    def test_g_sets_structure(self):
        cfg = SystemConfig(n=4, seed=1)
        result, stack = run_svss(cfg, dealer=1, secret=3, reconstruct=False)
        inst = stack.vss[2].svss[result.session]
        assert inst.G_hat is not None
        assert len(inst.G_hat) >= cfg.n - cfg.t
        for j in inst.G_hat:
            assert len(inst.G_hat_map[j]) >= cfg.n - cfg.t

    def test_outputs_only_after_reconstruct(self):
        cfg = SystemConfig(n=4, seed=1)
        result, stack = run_svss(cfg, dealer=1, secret=3, reconstruct=False)
        assert result.outputs == {}

    def test_dealer_cannot_double_share(self):
        from repro.errors import ProtocolError

        cfg = SystemConfig(n=4, seed=1)
        stack = build_stack(cfg)
        sid = svss_session(("x", 0), 1)
        stack.vss[1].svss_share(sid, 1)
        with pytest.raises(ProtocolError):
            stack.vss[1].svss_share(sid, 2)

    def test_non_dealer_cannot_share(self):
        from repro.errors import ProtocolError

        cfg = SystemConfig(n=4, seed=1)
        stack = build_stack(cfg)
        with pytest.raises(ProtocolError):
            stack.vss[2].svss_share(svss_session(("x", 0), 1), 1)

    def test_reconstruct_requires_completed_share(self):
        from repro.errors import ProtocolError

        cfg = SystemConfig(n=4, seed=1)
        stack = build_stack(cfg)
        sid = svss_session(("x", 0), 1)
        with pytest.raises(ProtocolError):
            stack.vss[1].svss_begin_reconstruct(sid)

    def test_concurrent_sessions_independent(self):
        cfg = SystemConfig(n=4, seed=2)
        stack = build_stack(cfg)
        from repro.core.manager import CallbackWatcher

        outs: dict[tuple, dict[int, object]] = {}
        for c, dealer, secret in ((0, 1, 10), (1, 2, 20), (2, 3, 30)):
            tag = ("multi", c)
            outs[tag] = {}
            for pid in cfg.pids:
                stack.vss[pid].register_watcher(
                    tag,
                    CallbackWatcher(
                        on_svss_output=lambda s, v, pid=pid, tag=tag: outs[
                            tag
                        ].setdefault(pid, v)
                    ),
                )
        for c, dealer, secret in ((0, 1, 10), (1, 2, 20), (2, 3, 30)):
            stack.vss[dealer].svss_share(svss_session(("multi", c), dealer), secret)
        stack.runtime.run_to_quiescence()
        for c, dealer, secret in ((0, 1, 10), (1, 2, 20), (2, 3, 30)):
            for pid in cfg.pids:
                stack.vss[pid].svss_begin_reconstruct(
                    svss_session(("multi", c), dealer)
                )
        stack.runtime.run_to_quiescence()
        assert outs[("multi", 0)] == {pid: 10 for pid in cfg.pids}
        assert outs[("multi", 1)] == {pid: 20 for pid in cfg.pids}
        assert outs[("multi", 2)] == {pid: 30 for pid in cfg.pids}
