"""Shunning-mechanism tests: the budget argument behind Theorem 1.

The paper's core counting argument: every broken MW-SVSS/SVSS invocation
consumes at least one fresh (nonfaulty, faulty) shun pair, of which there
are at most ``t * (n - t)``.  These tests exercise the budget, the delay
machinery, and recovery (post-shun sessions behave like fault-free ones).
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.behaviors import ByzantineBehavior, LyingReconstructorBehavior
from repro.adversary.controller import Adversary
from repro.config import SystemConfig
from repro.core.api import build_stack, flip_common_coin
from repro.core.dmm import DELAY
from repro.core.manager import CallbackWatcher
from repro.core.sessions import mw_session
from repro.sim.scheduler import FifoScheduler


def run_sequential_mw_sessions(stack, cfg, dealer, moderator, secrets):
    """Run MW-SVSS sessions back-to-back on one stack, reconstruct each."""
    outputs_per_session = []
    for c, secret in enumerate(secrets):
        tag = ("seq", c)
        sid = mw_session(tag, dealer, moderator, "dm")
        completed, outputs = set(), {}
        for pid in cfg.pids:
            stack.vss[pid].register_watcher(
                tag,
                CallbackWatcher(
                    on_mw_share_complete=lambda s, pid=pid: completed.add(pid),
                    on_mw_output=lambda s, v, pid=pid: outputs.setdefault(pid, v),
                ),
            )
        stack.vss[dealer].mw_share(sid, secret)
        stack.vss[moderator].mw_moderate(sid, secret)
        nonfaulty = set(stack.nonfaulty())
        stack.runtime.run_until(lambda: nonfaulty <= completed, max_events=10_000_000)
        for pid in cfg.pids:
            try:
                stack.vss[pid].mw_begin_reconstruct(sid)
            except Exception:
                pass
        stack.runtime.run_until(
            lambda: nonfaulty <= set(outputs), max_events=10_000_000
        )
        outputs_per_session.append(outputs)
    return outputs_per_session


class TestShunBudget:
    @pytest.mark.parametrize("seed", range(3))
    def test_shun_pairs_bounded_under_persistent_liar(self, seed):
        """A liar that corrupts every reconstruct broadcast across many
        sessions can never accumulate more than t(n-t) shun pairs."""
        cfg = SystemConfig(n=4, seed=seed)
        liar = 3
        adversary = Adversary(
            {liar: LyingReconstructorBehavior(random.Random(seed))}
        )
        stack = build_stack(cfg, adversary=adversary)
        run_sequential_mw_sessions(stack, cfg, dealer=1, moderator=2, secrets=range(8))
        pairs = stack.trace.shun_pairs()
        assert len(pairs) <= cfg.t * (cfg.n - cfg.t)
        assert all(culprit == liar for _, culprit in pairs)

    @pytest.mark.parametrize("seed", range(3))
    def test_liar_is_eventually_neutralized(self, seed):
        """Once every affected process has convicted the liar, later
        sessions reconstruct correctly: the protocol self-heals."""
        cfg = SystemConfig(n=4, seed=seed + 10)
        liar = 3
        adversary = Adversary(
            {liar: LyingReconstructorBehavior(random.Random(seed))}
        )
        stack = build_stack(cfg, adversary=adversary)
        outputs = run_sequential_mw_sessions(
            stack, cfg, dealer=1, moderator=2, secrets=range(10)
        )
        honest = [p for p in cfg.pids if p != liar]
        # In the last sessions the liar is in everyone's D set (or silently
        # delayed), so reconstruction is clean.
        last = outputs[-1]
        assert all(last[p] == 9 for p in honest), last

    def test_shun_records_name_real_culprits_only(self):
        for seed in range(3):
            cfg = SystemConfig(n=4, seed=seed + 30)
            liar = 2
            adversary = Adversary(
                {liar: LyingReconstructorBehavior(random.Random(seed))}
            )
            stack = build_stack(cfg, adversary=adversary)
            run_sequential_mw_sessions(
                stack, cfg, dealer=1, moderator=4, secrets=range(4)
            )
            # Lemma 1(a): only faulty processes ever land in a D set.
            for observer, culprit in stack.trace.shun_pairs():
                assert culprit == liar
                assert observer != liar


class TestNoFalseShuns:
    @pytest.mark.parametrize("seed", range(4))
    def test_fault_free_runs_never_shun(self, seed):
        cfg = SystemConfig(n=4, seed=seed)
        stack = build_stack(cfg)
        run_sequential_mw_sessions(stack, cfg, dealer=1, moderator=2, secrets=range(5))
        assert stack.trace.shun_pairs() == set()
        for pid in cfg.pids:
            assert stack.vss[pid].dmm.D == set()

    def test_slow_honest_process_not_convicted(self):
        from repro.sim.scheduler import ExponentialDelayScheduler, TargetedDelayScheduler

        cfg = SystemConfig(n=4, seed=5)
        sched = TargetedDelayScheduler(
            ExponentialDelayScheduler(cfg.derive_rng("s"), mean=1.0),
            victims={3},
            factor=100.0,
        )
        stack = build_stack(cfg, scheduler=sched)
        run_sequential_mw_sessions(stack, cfg, dealer=1, moderator=2, secrets=range(3))
        for pid in cfg.pids:
            assert stack.vss[pid].dmm.D == set()


class TestDelayedRelease:
    def test_expectations_cleared_after_each_session(self):
        """In fault-free runs, every expectation raised during a session is
        eventually discharged — nobody stays suspected."""
        cfg = SystemConfig(n=4, seed=2)
        stack = build_stack(cfg)
        run_sequential_mw_sessions(stack, cfg, dealer=1, moderator=2, secrets=range(3))
        stack.runtime.run_to_quiescence()
        for pid in cfg.pids:
            dmm = stack.vss[pid].dmm
            suspected = dmm.shunned_or_suspected()
            assert suspected == set(), f"pid {pid} still suspects {suspected}"


class WithholdingReconstructor(ByzantineBehavior):
    """Follows S' honestly, then reveals nothing in R': its ``rv`` broadcast
    carries no value, so every expectation about it stays owed."""

    def corrupt_mw_reconstruct_values(self, session, values, prime):
        return {}


def quiescent_coin(n, seed, adversary=None):
    _, stack = flip_common_coin(
        SystemConfig(n=n, seed=seed),
        adversary=adversary,
        scheduler=FifoScheduler(),
    )
    stack.runtime.run_to_quiescence()
    return stack


class TestSuspicionAfterACoin:
    """Expectations of sessions nobody will reconstruct (unattached dealers,
    pairs outside Ĝ) used to stay pending forever and report honest peers
    as suspected; the debts of reconstructed sessions must survive."""

    @pytest.mark.parametrize("n,seed", [(4, 0), (4, 1), (7, 0)])
    def test_fault_free_coin_leaves_nobody_suspected(self, n, seed):
        stack = quiescent_coin(n, seed)
        for pid in stack.config.pids:
            vss = stack.vss[pid]
            assert vss.dmm.shunned_or_suspected() == set()
            assert not vss.dmm._owed
            assert not vss.dmm._ledgers
            assert not vss._delayed

    @pytest.mark.parametrize("seed,late", [(2, 3), (5, 2), (0, 1), (7, 4)])
    def test_a_late_release_leaves_no_debt_anywhere(self, seed, late):
        """One process releases only after the others reached quiescence
        under random delays.  Every ``rv`` it needs is already there, so its
        sharings output while ``begin_reconstruct`` is still walking ``Ĝ``;
        the pair invocations the walk had not reached must still broadcast
        their ``rv``, or the others' ACK / DEAL expectations on this honest
        process arm and never clear."""
        from test_retire_equiv import staggered_coin

        others = tuple(p for p in (1, 2, 3, 4) if p != late)
        stack, outputs = staggered_coin(4, seed, ((others, None), ((late,), None)))
        assert set(outputs) == {1, 2, 3, 4} and len(set(outputs.values())) == 1
        for pid in stack.config.pids:
            vss = stack.vss[pid]
            assert not vss.dmm._armed and not vss.dmm._owed and not vss.dmm._ledgers
            assert vss.dmm.shunned_or_suspected() == set()
            assert not vss._delayed
            # Every sharing finished and left the tables for the tombstone.
            assert not vss.mw and not vss.svss and len(vss.clock.retired) == 16

    def test_withheld_reveal_leaves_only_the_culprit_suspected(self):
        culprit = 2
        stack = quiescent_coin(
            4, 0, adversary=Adversary({culprit: WithholdingReconstructor()})
        )
        observers = []
        for pid in stack.nonfaulty():
            vss = stack.vss[pid]
            dmm = vss.dmm
            assert dmm.shunned_or_suspected() <= {culprit}
            if not dmm.has_expectations(culprit):
                continue  # never had the culprit among its confirmers
            observers.append(pid)
            # The debt is armed although every session it refers to has
            # retired and left the tables: a later session of the culprit waits.
            owed = dmm.pending_sessions(culprit)
            assert owed and not vss.mw and all(vss.clock.finished(sid) for sid in owed)
            later = mw_session(("later", 0), culprit, pid, "dm")
            vss._ensure_mw(later)
            assert dmm.filter_verdict(culprit, later) == DELAY
        assert len(observers) >= 2


class TestTheBatchJudgedIsTheBatchUsed:
    def test_a_lie_delivered_before_the_truth_convicts_at_step_3(self):
        """Sender 4's ``rv`` for one session arrives twice (two RB bids), a
        lie about f̂_3(4) first and then the truth, both before monitor 3's
        step-3 expectation for 4 exists.  The instance interpolates with
        the first delivery, so that is the batch the DMM must judge: once
        4's confirm and ack land, 4 is in ``D``."""
        stack = build_stack(SystemConfig(n=4, seed=0), scheduler=FifoScheduler())
        mgr, sender = stack.vss[3], 4
        sid = mw_session(("solo", "twice"), 1, 2, "dm")
        mon = (5, 6)  # f̂_3(1..t+1) from dealer 1: f̂_3(x) = 4 + x, f̂_3(4) = 8
        lie, truth = ((3, 9),), ((3, 8),)
        mgr._on_rb(sender, ("vss", sid, "rv", lie))
        mgr._on_rb(sender, ("vss", sid, "rv", truth))
        inst = mgr.mw[sid]
        assert inst.rv_batches[sender] == mgr.parse_rv(lie)  # the first stays
        assert sender not in mgr.dmm.D and not mgr.dmm.has_expectations(sender)
        mgr._on_private(1, ("v", sid, "mon", mon))
        mgr._on_private(sender, ("v", sid, "cnf", 8))  # f̂_3(4): it confirms
        mgr._on_rb(sender, ("vss", sid, "ack", None))
        assert inst.L >> sender & 1  # step 3 admitted it
        assert sender in mgr.dmm.D

    def test_a_lie_delivered_before_the_truth_convicts_at_step_7(self):
        """The dealer's side: confirmer 4's ``rv`` lies about f_2(4), then
        tells the truth, both before dealer 1's step 7; once M̂ and every
        L̂_j with its acks land, step 7 judges the lie and 4 is in ``D``."""
        stack = build_stack(SystemConfig(n=4, seed=0), scheduler=FifoScheduler())
        mgr, sender, p = stack.vss[1], 4, stack.config.prime
        sid = mw_session(("solo", "twice"), 1, 2, "dm")
        mgr.mw_share(sid, 7)
        inst = mgr.mw[sid]
        value = inst._deal_rows[sender][2 - 1]  # f_2(4), the column sent to 4
        mgr._on_rb(sender, ("vss", sid, "rv", ((2, (value + 1) % p),)))
        mgr._on_rb(sender, ("vss", sid, "rv", ((2, value),)))
        assert not mgr.dmm.has_expectations(sender)
        for pid in (2, 3, 4):
            mgr._on_rb(pid, ("vss", sid, "ack", None))
            mgr._on_rb(pid, ("vss", sid, "L", (2, 3, 4)))
        mgr._on_rb(2, ("vss", sid, "M", (2, 3, 4)))
        assert inst._dealer_acked  # step 7 ran
        assert sender in mgr.dmm.D
