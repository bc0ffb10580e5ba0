"""Integration tests for MW-SVSS (paper §3.2) against its §2.2 properties."""

from __future__ import annotations

import random

import pytest
from reference.svss_output import horner, interpolate

from repro.adversary.behaviors import (
    ByzantineBehavior,
    CrashBehavior,
    EquivocatingDealerBehavior,
    LyingConfirmerBehavior,
    LyingReconstructorBehavior,
    SilentBehavior,
)
from repro.adversary.controller import Adversary
from repro.config import SystemConfig
from repro.core.api import build_stack, run_mwsvss
from repro.core.mwsvss import BOTTOM
from repro.core.sessions import mw_session
from repro.sim.process import ENVELOPE_TAG
from repro.sim.scheduler import ExponentialDelayScheduler, TargetedDelayScheduler


class TestModeratedValidityOfTermination:
    """Property 1': honest dealer + honest moderator + s = s' — everyone
    completes the share protocol."""

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_share_completes_everywhere(self, n):
        cfg = SystemConfig(n=n, seed=n)
        result, _ = run_mwsvss(cfg, dealer=1, moderator=2, secret=42, reconstruct=False)
        assert result.share_completed == set(cfg.pids)

    @pytest.mark.parametrize("seed", range(5))
    def test_under_random_schedules(self, seed):
        cfg = SystemConfig(n=4, seed=seed)
        sched = ExponentialDelayScheduler(cfg.derive_rng("s"), mean=5.0)
        result, _ = run_mwsvss(
            cfg, dealer=3, moderator=4, secret=7, reconstruct=False, scheduler=sched
        )
        assert result.share_completed == set(cfg.pids)

    def test_dealer_equal_secret_values_edge(self):
        cfg = SystemConfig(n=4, seed=0)
        for secret in (0, 1, cfg.prime - 1):
            result, _ = run_mwsvss(cfg, dealer=1, moderator=2, secret=secret)
            assert set(result.outputs.values()) == {secret}

    def test_mismatched_moderator_blocks_share(self):
        """If s != s', an honest moderator never endorses the dealing."""
        cfg = SystemConfig(n=4, seed=1)
        result, _ = run_mwsvss(
            cfg, dealer=1, moderator=2, secret=5, moderator_value=6, reconstruct=False
        )
        assert result.share_completed == set()


class TestValidity:
    """Property: honest dealer — every honest output is s, or someone shuns."""

    @pytest.mark.parametrize("n,seed", [(4, 0), (4, 1), (7, 0), (10, 0)])
    def test_reconstructs_secret(self, n, seed):
        cfg = SystemConfig(n=n, seed=seed)
        result, _ = run_mwsvss(cfg, dealer=1, moderator=2, secret=99)
        assert result.outputs == {pid: 99 for pid in cfg.pids}

    @pytest.mark.parametrize("seed", range(6))
    def test_validity_or_shun_under_lying_reconstructor(self, seed):
        cfg = SystemConfig(n=4, seed=seed)
        liar = 3
        adversary = Adversary({liar: LyingReconstructorBehavior(random.Random(seed))})
        result, stack = run_mwsvss(
            cfg, dealer=1, moderator=2, secret=42, adversary=adversary
        )
        honest = [p for p in cfg.pids if p != liar]
        for pid in honest:
            if result.outputs.get(pid) not in (42, BOTTOM):
                # validity broken: the liar must be freshly shunned
                assert any(c == liar for _, c in result.trace.shun_pairs())
        # Whenever the liar actually owed (and corrupted) reconstruct values,
        # the conflict with a recorded expectation convicts it somewhere.
        if (liar, "vss", result.session, "rv") in stack.broadcasts[liar]._instances:
            assert any(c == liar for _, c in result.trace.shun_pairs())

    @pytest.mark.parametrize("seed", range(4))
    def test_silent_process_does_not_block(self, seed):
        cfg = SystemConfig(n=4, seed=seed)
        adversary = Adversary({4: SilentBehavior()})
        result, _ = run_mwsvss(cfg, dealer=1, moderator=2, secret=17, adversary=adversary)
        for pid in (1, 2, 3):
            assert result.outputs[pid] == 17

    @pytest.mark.parametrize("seed", range(4))
    def test_crashed_process_does_not_block(self, seed):
        cfg = SystemConfig(n=7, seed=seed)
        adversary = Adversary({5: CrashBehavior(after_messages=20)})
        result, _ = run_mwsvss(cfg, dealer=1, moderator=2, secret=3, adversary=adversary)
        for pid in (1, 2, 3, 4, 6, 7):
            assert result.outputs[pid] == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_lying_confirmer_cannot_corrupt_value(self, seed):
        """A confirmer lying in step 2 fails the f̂_j(l) check and simply
        stays out of L_j; the dealing still reconstructs."""
        cfg = SystemConfig(n=4, seed=seed)
        adversary = Adversary({4: LyingConfirmerBehavior(random.Random(seed))})
        result, _ = run_mwsvss(cfg, dealer=1, moderator=2, secret=8, adversary=adversary)
        for pid in (1, 2, 3):
            assert result.outputs[pid] == 8


class TestWeakBinding:
    """Property 3': a faulty dealer is bound to one value r (possibly ⊥):
    honest outputs are in {r, ⊥} — or a fresh shun pair appears."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equivocating_dealer(self, seed):
        cfg = SystemConfig(n=4, seed=seed)
        dealer = 1
        adversary = Adversary({dealer: EquivocatingDealerBehavior(random.Random(seed))})
        result, stack = run_mwsvss(
            cfg, dealer=dealer, moderator=2, secret=42, adversary=adversary
        )
        honest = [p for p in cfg.pids if p != dealer]
        outputs = [result.outputs[p] for p in honest if p in result.outputs]
        non_bottom = {o for o in outputs if o is not BOTTOM}
        if len(non_bottom) > 1:
            assert any(c == dealer for _, c in result.trace.shun_pairs())

    def test_moderated_binding_honest_moderator(self):
        """If the share completes with an honest moderator, the bound value
        is the moderator's s' — here dealer and moderator agree, so 42."""
        cfg = SystemConfig(n=4, seed=2)
        result, _ = run_mwsvss(cfg, dealer=1, moderator=2, secret=42)
        assert all(v == 42 for v in result.outputs.values())


class TestTermination:
    """Property 2: one honest completion drags every honest process along."""

    @pytest.mark.parametrize("seed", range(4))
    def test_straggler_completes(self, seed):
        cfg = SystemConfig(n=4, seed=seed)
        sched = TargetedDelayScheduler(
            ExponentialDelayScheduler(cfg.derive_rng("s"), mean=1.0),
            victims={4},
            factor=200.0,
        )
        result, _ = run_mwsvss(
            cfg, dealer=1, moderator=2, secret=5, scheduler=sched
        )
        assert result.share_completed == set(cfg.pids)
        assert result.outputs == {pid: 5 for pid in cfg.pids}


def share_and_tap(cfg: SystemConfig, pids, secret: int):
    """Share one MW-SVSS session (dealer 1, moderator 2, no reconstruct) to
    quiescence.  Returns what each of ``pids`` received from the dealer, by
    pid and kind, as the runtime delivered it, and the dealer's instance."""
    stack = build_stack(cfg)
    sid = mw_session(("solo", 0), 1, 2, "dm")
    views: dict[int, dict[str, object]] = {pid: {} for pid in pids}

    def tap(src, dst, payload):
        if src != 1 or dst not in views:
            return
        messages = payload[1] if payload[0] == ENVELOPE_TAG else (payload,)
        for message in messages:
            if message[0] == "v" and message[1] == sid:
                views[dst].setdefault(message[2], message[3])

    stack.runtime.delivery_tap = tap
    stack.vss[1].mw_share(sid, secret)
    stack.vss[2].mw_moderate(sid, secret)
    stack.runtime.run_to_quiescence()
    return views, stack.vss[1].mw[sid]


#: t corrupt processes, neither the dealer (1) nor the moderator (2).
CORRUPT = {4: (3,), 7: (3, 5)}


class TestHiding:
    """Property 5': before reconstruct, any t processes' view is consistent
    with every candidate secret — shown constructively on the messages the
    corrupt processes received."""

    @pytest.mark.parametrize("n", [4, 7])
    def test_corrupt_view_consistent_with_every_secret(self, n):
        cfg = SystemConfig(n=n, seed=3, prime=13)
        prime, t, secret = cfg.prime, cfg.t, 4
        corrupt = CORRUPT[n]
        views, dealer_inst = share_and_tap(cfg, corrupt, secret)
        grid = range(1, t + 2)

        def view_of(f, subs, j):
            """What process j receives from a dealing (f, f_1..f_n)."""
            shares = tuple(horner(prime, sub, j) for sub in subs)  # f_l(j)
            return shares, tuple(horner(prime, subs[j - 1], x) for x in grid)

        # The dealer's polynomials, drawn again from its stream: f, then
        # f_1..f_n, low degree first, each f_l(0) = f(l) pinned after its
        # draw.  The corrupt processes received exactly their values (which
        # also pins the dealer's draw order).
        rng = cfg.derive_rng("mw-deal", dealer_inst.sid)
        f = cfg.field.random_elements(rng, t + 1)
        f[0] = secret
        subs = [cfg.field.random_elements(rng, t + 1) for _ in cfg.pids]
        for l, sub in zip(cfg.pids, subs):
            sub[0] = horner(prime, f, l)
        for j in corrupt:
            assert (views[j]["shl"], views[j]["mon"]) == view_of(f, subs, j)

        # The masking witness: q of degree <= t with q(0) = 1 and q(j) = 0
        # for every corrupt j.
        q = interpolate(prime, [(0, 1), *((j, 0) for j in corrupt)])
        q += [0] * (t + 1 - len(q))
        assert horner(prime, q, 0) == 1
        assert all(horner(prime, q, j) == 0 for j in corrupt)

        def shifted(coeffs, delta):
            return [(c + delta * d) % prime for c, d in zip(coeffs, q)]

        for s_prime in range(prime):
            f_alt = shifted(f, s_prime - secret)
            subs_alt = [
                shifted(sub, horner(prime, f_alt, l) - horner(prime, f, l))
                for l, sub in zip(cfg.pids, subs)
            ]
            # a valid dealing of s_prime ...
            assert horner(prime, f_alt, 0) == s_prime
            for l, sub in zip(cfg.pids, subs_alt):
                assert horner(prime, sub, 0) == horner(prime, f_alt, l)
            # ... that gives every corrupt process the same view
            for j in corrupt:
                assert view_of(f_alt, subs_alt, j) == view_of(f, subs, j)

    def test_share_values_leak_nothing_statistically(self):
        """Distribution sanity: a non-dealer's share of the secret
        polynomial is uniform across seeds."""
        counts = {}
        for seed in range(120):
            cfg = SystemConfig(n=4, seed=seed, prime=13)
            views, _ = share_and_tap(cfg, (3,), secret=5)
            grid = range(1, cfg.t + 2)
            f_3_at_0 = interpolate(cfg.prime, list(zip(grid, views[3]["mon"])))[0]
            counts[f_3_at_0] = counts.get(f_3_at_0, 0) + 1
        # f_3(0) = f(3) is uniform over GF(13): no value should dominate.
        assert max(counts.values()) < 30


class TestValueRows:
    """f̂_j and f̂ are value rows f(0..n), held only while steps 3 and 5
    read them."""

    def test_rows_dropped_at_freeze_and_duplicates_still_ignored(self, monkeypatch):
        """... and step 2 and R' step 1 run once each: their callers' own
        guards are all that keeps them from running again."""
        cfg = SystemConfig(n=4, seed=0)
        result, stack = run_mwsvss(cfg, dealer=1, moderator=2, secret=9, reconstruct=False)
        stack.runtime.run_to_quiescence()
        instances = [stack.vss[pid].mw[result.session] for pid in cfg.pids]
        moderator = instances[1]
        assert all(inst.L_frozen and inst.monitor_row is None for inst in instances)
        assert moderator.moderator_shares is None and moderator.moderator_row is None
        sent = stack.trace.total_messages
        L = [inst.L for inst in instances]
        for inst in instances:
            inst.handle(1, "mon", (1, 2))  # a second, different f̂_j
            inst.handle(1, "shl", inst.share_vector)  # a second shl, the same body
            inst.handle(1, "shl", (1, 2, 3, 4))  # ... and a different one
        moderator.handle(1, "mod", (3, 4))  # a second, different f̂
        assert all(inst.monitor_row is None for inst in instances)
        assert moderator.moderator_row is None
        assert [inst.L for inst in instances] == L
        assert stack.runtime.run_to_quiescence() == 0
        assert stack.trace.total_messages == sent  # no second confirm or ack
        rv = dict.fromkeys(cfg.pids, 0)
        for pid, mgr in stack.vss.items():
            broadcast = mgr.rb_broadcast

            def counted(inst, kind, body, pid=pid, broadcast=broadcast):
                rv[pid] += kind == "rv"
                broadcast(inst, kind, body)

            monkeypatch.setattr(mgr, "rb_broadcast", counted)
        for inst in instances:
            inst.begin_reconstruct()
            inst.begin_reconstruct()
        stack.runtime.run_to_quiescence()
        assert rv == dict.fromkeys(cfg.pids, 1)
        assert all(inst.output == 9 and inst.released for inst in instances)


class TestProtocolErrors:
    def test_non_dealer_cannot_share(self, cfg4):
        from repro.core.api import build_stack
        from repro.errors import ProtocolError

        stack = build_stack(cfg4)
        sid = mw_session(("solo", 0), 1, 2, "dm")
        with pytest.raises(ProtocolError):
            stack.vss[3].mw_share(sid, 1)

    def test_non_moderator_cannot_moderate(self, cfg4):
        from repro.core.api import build_stack
        from repro.errors import ProtocolError

        stack = build_stack(cfg4)
        sid = mw_session(("solo", 0), 1, 2, "dm")
        with pytest.raises(ProtocolError):
            stack.vss[3].mw_moderate(sid, 1)

    def test_double_share_rejected(self, cfg4):
        from repro.core.api import build_stack
        from repro.errors import ProtocolError

        stack = build_stack(cfg4)
        sid = mw_session(("solo", 0), 1, 2, "dm")
        stack.vss[1].mw_share(sid, 1)
        with pytest.raises(ProtocolError):
            stack.vss[1].mw_share(sid, 2)

    def test_reconstruct_before_share_rejected(self, cfg4):
        from repro.core.api import build_stack
        from repro.errors import ProtocolError

        stack = build_stack(cfg4)
        sid = mw_session(("solo", 0), 1, 2, "dm")
        with pytest.raises(ProtocolError):
            stack.vss[1].mw_begin_reconstruct(sid)

    def test_invalid_session_id_rejected(self, cfg4):
        from repro.core.api import build_stack
        from repro.errors import ProtocolError

        stack = build_stack(cfg4)
        with pytest.raises(ProtocolError):
            stack.vss[1].mw_share(("mw", ("solo", 0), 99, 2, "dm"), 1)


class TestByzantineNoise:
    """Garbage from corrupt processes must never crash honest logic."""

    @pytest.mark.parametrize("seed", range(6))
    def test_mutator_storm(self, seed):
        from repro.adversary.behaviors import MutatingBehavior

        cfg = SystemConfig(n=4, seed=seed)
        adversary = Adversary({2: MutatingBehavior(random.Random(seed), rate=0.7)})
        result, _ = run_mwsvss(
            cfg, dealer=1, moderator=3, secret=11, adversary=adversary
        )
        # No exception is the main assertion; outputs of honest processes,
        # when present, satisfy weak binding or a shun happened.
        outs = {result.outputs.get(p) for p in (1, 3, 4)} - {None, BOTTOM}
        if len(outs) > 1:
            assert any(c == 2 for _, c in result.trace.shun_pairs())
