"""Wire-level message coalescing: envelopes, determinism, adversaries.

The load-bearing property is that coalescing is a *pure event-count
optimization*: under a fixed-delay scheduler, decisions AND per-party
delivered logical-message sequences are bit-identical to the uncoalesced
run — only the number of queue events shrinks
(one envelope per (src, dst) pair per dispatch step instead of one event
per logical message).  The adversarial tests then pin the per-logical-
message contract: outbound filters see individual messages, crash points
are unchanged, a crash mid-envelope drops the rest of the envelope, a
vote-balancing scheduler classifies envelopes by their dominant
sub-payload, and an envelope-splitting scheduler never forms one.

Envelopes are always on; the uncoalesced run is the same run under a
scheduler that splits them (``split=`` below).  Most comparisons are the
default transport against :func:`per_message`; the two that are exact only
with the slot layer held still (delivered sequences, a crash budget counted
in sends) compare ``SlotSplit(base)`` with ``SlotSplit(EnvSplit(base))``.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.behaviors import CrashBehavior, MutatingBehavior
from repro.adversary.controller import Adversary
from repro.adversary.schedulers import (
    EnvelopeSplittingScheduler,
    SlotSplittingScheduler,
    VoteBalancingScheduler,
    per_message,
)
from repro.config import SystemConfig
from repro.core.agreement import ABAProcess, VoteVectorMux
from repro.core.api import (
    build_stack,
    flip_common_coin,
    make_coins,
    run_byzantine_agreement,
    run_byzantine_agreement_batch,
)
from repro.protocols.cr_avss import cr_coin
from repro.sim.process import ENVELOPE_TAG
from repro.sim.runtime import Runtime
from repro.sim.scheduler import FifoScheduler, Scheduler

IDEAL = ("ideal", 1.0)


def split_inputs(n: int) -> list[int]:
    return [i % 2 for i in range(n)]


def split_matrix(n: int, k: int) -> list[list[int]]:
    return [[(i + shift) % 2 for i in range(n)] for shift in range(k)]


def run_solo(n, seed, coin, split=None, scheduler=None, **kw):
    scheduler = scheduler if scheduler is not None else FifoScheduler()
    return run_byzantine_agreement(
        split_inputs(n),
        SystemConfig(n=n, seed=seed),
        coin=coin,
        scheduler=split(scheduler) if split else scheduler,
        **kw,
    )


def run_batch(inputs, seed, coin, split=None, scheduler=None, **kw):
    scheduler = scheduler if scheduler is not None else FifoScheduler()
    return run_byzantine_agreement_batch(
        inputs,
        SystemConfig(n=len(inputs[0]), seed=seed),
        coin=coin,
        scheduler=split(scheduler) if split else scheduler,
        **kw,
    )


class TestBitIdenticalDecisions:
    """The acceptance property: the default transport vs the per-message
    run, per seed, across the shipped fixed-delay schedulers."""

    @pytest.mark.parametrize("scheduler_cls", [Scheduler, FifoScheduler])
    @pytest.mark.parametrize("seed", range(3))
    def test_solo_ideal(self, scheduler_cls, seed):
        off = run_solo(7, seed, IDEAL, scheduler=scheduler_cls(), split=per_message)
        on = run_solo(7, seed, IDEAL, scheduler=scheduler_cls())
        assert off.agreed and on.agreed
        assert on.decisions == off.decisions
        assert on.rounds == off.rounds
        # The logical message bill is coalescing-invariant by construction
        # (a solo ideal-coin run has nothing a mux could pack).
        assert on.trace.total_messages == off.trace.total_messages

    def test_solo_svss_full_stack(self):
        """The full shunning stack (broadcast + VSS + DMM + coin) under
        envelopes: identical decisions, far fewer events."""
        off = run_solo(4, 7, "svss", split=per_message)
        on = run_solo(4, 7, "svss")
        assert off.agreed and on.agreed
        assert on.decisions == off.decisions
        assert on.rounds == off.rounds
        # (Exact logical-message equality is asserted on quiescence-driven
        # runs in TestDeliveredSequences; a predicate-stopped run may
        # finish the decisive envelope before halting, so the totals here
        # can differ by a step's worth of sends.)
        assert on.events_dispatched * 2 < off.events_dispatched
        assert on.envelopes_pushed > 0
        assert on.payloads_coalesced >= 2 * on.envelopes_pushed

    def test_coin_flip_identical_and_reduced(self):
        cfg = SystemConfig(n=7, seed=5)
        off, _ = flip_common_coin(cfg, scheduler=EnvelopeSplittingScheduler(FifoScheduler()))
        on, _ = flip_common_coin(cfg, scheduler=FifoScheduler())
        assert on.outputs == off.outputs
        assert off.envelopes_pushed == 0 and off.svec_packed == on.svec_packed > 0
        # The n² MW-SVSS sessions share (src, dst) pairs per step, so the
        # event bill collapses by far more than the gate's 2x.
        assert on.events_dispatched * 2 < off.events_dispatched

    def test_replay_deterministic(self):
        a = run_solo(4, 3, "svss")
        b = run_solo(4, 3, "svss")
        assert a.decisions == b.decisions
        assert a.events_dispatched == b.events_dispatched
        assert a.envelopes_pushed == b.envelopes_pushed
        assert a.sim_time == b.sim_time


class TestDeliveredSequences:
    """Every conversation — one (src, dst, session/broadcast-id) stream —
    delivers the bit-identical logical-message sequence, and every party
    handles the identical message multiset; asserted on the full SVSS
    stack by logging every handler delivery.  (Distinct conversations may
    regroup *within* a simultaneity bucket when an envelope merges what
    were separate events; the protocol state machines are per-session, and
    the decision A/B tests pin the regrouping as decision-invariant.)"""

    def _logged_run(self, coalesce: bool):
        # Slots split on both sides: a vector's contents depend on how big
        # a step is, so only the per-session stream has sequences to compare.
        config = SystemConfig(n=4, seed=9)
        scheduler = FifoScheduler() if coalesce else EnvelopeSplittingScheduler(FifoScheduler())
        stack = build_stack(config, scheduler=SlotSplittingScheduler(scheduler))
        log: dict[int, list] = {pid: [] for pid in config.pids}
        for pid, host in stack.runtime.hosts.items():
            for tag, handler in list(host._handlers.items()):
                if tag == ENVELOPE_TAG:
                    continue  # envelopes are framing, not logical messages

                def wrapped(src, payload, pid=pid, handler=handler):
                    log[pid].append((src, payload))
                    handler(src, payload)

                host._handlers[tag] = wrapped
        coins = make_coins(stack, "svss")
        decisions: dict[int, int] = {}
        processes = {
            pid: ABAProcess(
                stack.runtime.host(pid),
                stack.broadcasts[pid],
                coins[pid],
                on_decide=lambda v, pid=pid: decisions.setdefault(pid, v),
            )
            for pid in config.pids
        }
        with stack.runtime.coalescing_step():
            for pid in config.pids:
                processes[pid].start(pid % 2)
        stack.runtime.run_to_quiescence()
        assert len(decisions) == config.n
        return log, decisions

    @staticmethod
    def _conversations(entries):
        """Group one party's deliveries into (src, tag, session) streams.

        Position 1 of every wire payload is its session id ('v' messages)
        or broadcast id (b1/b2/b3), so this is the per-conversation FIFO
        decomposition."""
        streams: dict = {}
        for src, payload in entries:
            key = (src, payload[0], payload[1] if len(payload) > 1 else None)
            streams.setdefault(key, []).append(payload)
        return streams

    def test_sequences_identical_on_off(self):
        from collections import Counter

        log_off, dec_off = self._logged_run(coalesce=False)
        log_on, dec_on = self._logged_run(coalesce=True)
        assert dec_on == dec_off
        for pid in log_off:
            # Same multiset of (src, message) deliveries at every party ...
            assert Counter(log_on[pid]) == Counter(log_off[pid]), pid
            # ... and bit-identical per-conversation sequences.
            conv_off = self._conversations(log_off[pid])
            conv_on = self._conversations(log_on[pid])
            assert conv_on == conv_off, pid


class TestEnvelopeUnpack:
    """Receiver-side envelope semantics, driven directly."""

    def make_runtime(self, coalesce=True):
        scheduler = FifoScheduler()
        if not coalesce:
            scheduler = EnvelopeSplittingScheduler(scheduler)
        return Runtime(SystemConfig(n=2, seed=0), scheduler=scheduler)

    def test_crash_mid_envelope_drops_remaining_subpayloads(self):
        rt = self.make_runtime()
        host = rt.host(1)
        got = []

        def on_a(src, payload):
            got.append(payload)
            host.crash()

        host.register_handler("a", on_a)
        host.register_handler("b", lambda s, p: got.append(p))
        host._deliver_envelope(2, ("env", (("a", 1), ("b", 2), ("a", 3))))
        assert got == [("a", 1)]

    def test_forged_envelope_grants_no_new_power(self):
        """Malformed bodies, nested envelopes, unknown/unhashable tags: all
        dropped per sub-payload, exactly like plain byzantine sends."""
        rt = self.make_runtime()
        host = rt.host(1)
        got = []
        host.register_handler("a", lambda s, p: got.append(p))
        host._deliver_envelope(2, ("env", [("a", 1)]))  # list body: dropped
        host._deliver_envelope(2, ("env",))  # short: dropped
        host._deliver_envelope(2, ("env", (("a", 1), ("a", 2)), "extra"))
        host._deliver_envelope(
            2,
            (
                "env",
                (
                    ("env", (("a", "nested"),)),  # nesting refused
                    "garbage",  # non-tuple sub-payload
                    (),  # empty sub-payload
                    (["unhashable"], 1),  # unhashable tag
                    ("unknown", 1),  # unregistered tag
                    ("a", 42),  # a valid one still lands
                ),
            ),
        )
        assert got == [("a", 42)]

    def test_env_tag_reserved(self):
        rt = self.make_runtime(coalesce=False)
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            rt.host(1).register_handler("env", lambda s, p: None)

    def test_crashed_receiver_drops_whole_envelope(self):
        rt = self.make_runtime()
        host = rt.host(1)
        got = []
        host.register_handler("a", lambda s, p: got.append(p))
        host.crash()
        host._deliver_envelope(2, ("env", (("a", 1), ("a", 2))))
        assert got == []


class TestAdversarialSemantics:
    """Delay/drop/mutate are defined per logical message; no adversarial
    power is lost when coalescing is on."""

    def test_outbound_filter_sees_logical_messages_not_envelopes(self):
        rt = Runtime(SystemConfig(n=2, seed=0), scheduler=FifoScheduler())
        sender, receiver = rt.host(2), rt.host(1)
        got, seen = [], []
        receiver.register_handler("x", lambda s, p: got.append(p))
        receiver.register_handler("y", lambda s, p: got.append(p))

        def kick(src, payload):
            sender.send(1, ("x", 1), "test")
            sender.send(1, ("y", 2), "test")

        sender.register_handler("kick", kick)

        def filter_out(dst, payload):
            seen.append(payload)
            return ("x", 99) if payload[0] == "x" else payload

        sender.outbound_filter = filter_out
        rt.transmit(1, 2, ("kick",), "test")
        rt.run_to_quiescence()
        # The filter saw the two logical messages, never an envelope ...
        assert seen == [("x", 1), ("y", 2)]
        # ... the mutated one's sibling is untouched ...
        assert got == [("x", 99), ("y", 2)]
        # ... and both still rode one envelope.
        assert rt.envelopes_pushed == 1
        assert rt.payloads_coalesced == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_crash_spanning_instances_identical_on_off(self, seed):
        """CrashBehavior counts *logical* sends, so the crash point — and
        every decision — is identical with envelopes on.  (Vote vectors are
        split on both sides: folded RBs mean fewer echoes to send, so a
        budget counted in sends runs out elsewhere.)"""
        inputs = split_matrix(7, 4)

        def run(split):
            return run_batch(
                inputs,
                seed,
                IDEAL,
                split=split,
                adversary=Adversary({7: CrashBehavior(after_messages=40)}),
            )

        off, on = run(per_message), run(SlotSplittingScheduler)
        assert off.terminated and off.agreed
        assert on.terminated and on.agreed and on.envelopes_pushed > 0
        for iid in off.instance_ids:
            assert on.results[iid].decisions == off.results[iid].decisions, iid
        packed = run(None)
        assert packed.terminated and packed.agreed and packed.svec_packed > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_mutator_spanning_instances_coalesced(self, seed):
        """A byzantine mutator rewriting single sub-payloads (its filter
        runs pre-coalescing) cannot break safety of a coalesced batch."""
        inputs = split_matrix(4, 4)
        batch = run_batch(
            inputs,
            seed,
            IDEAL,
            adversary=Adversary({4: MutatingBehavior(random.Random(seed), rate=0.4)}),
        )
        assert batch.terminated and batch.agreed

    def test_splitting_scheduler_reproduces_uncoalesced_run(self):
        """The envelope-splitting adversary path: per-message scheduling is
        fully restored — the run is the uncoalesced one, bit for bit.  Its
        record was written by ``coalesce_votes=False`` when that existed
        (``batch-k5`` in ``tests/golden/dispatch_equiv.json``); live, the
        veto means one event per logical message, whichever wrapper is
        outermost."""
        inputs = split_matrix(7, 4)
        split = run_batch(inputs, 3, IDEAL, split=per_message)
        assert split.envelopes_pushed == 0 == split.svec_packed
        assert split.messages_pushed == split.logical_messages == split.trace.total_messages
        packed = run_batch(inputs, 3, IDEAL)
        assert packed.events_dispatched * 4 < split.events_dispatched
        other = run_batch(
            inputs,
            3,
            IDEAL,
            scheduler=EnvelopeSplittingScheduler(SlotSplittingScheduler(FifoScheduler())),
        )
        assert other.counters() == split.counters()
        for iid in split.instance_ids:
            for run in (other, packed):
                assert run.results[iid].decisions == split.results[iid].decisions
                assert run.results[iid].rounds == split.results[iid].rounds


class TestVoteBalancingOverEnvelopes:
    """The balancing scheduler classifies envelopes by their dominant vote
    sub-payload, and vote vectors by their dominant entry, instead of
    falling through to the default delay."""

    @staticmethod
    def aba_vote(value, phase=1, instance=("aba", 0), r=1, origin=1):
        return ("b1", (origin, "aba", instance, r, phase), ("aba", instance, r, phase, value))

    def test_envelope_classified_by_dominant_subpayload(self):
        vote = self.aba_vote
        env = ("env", (vote(1), vote(0), vote(1)))
        assert VoteBalancingScheduler._vote_value(env) == 1
        env = ("env", (vote(0), vote(0), vote(1)))
        assert VoteBalancingScheduler._vote_value(env) == 0
        # Ties break to the first classifiable sub-payload.
        assert VoteBalancingScheduler._vote_value(("env", (vote(1), vote(0)))) == 1
        assert VoteBalancingScheduler._vote_value(("env", (vote(0), vote(1)))) == 0
        # Vote-free envelopes and plain messages fall through unchanged.
        assert VoteBalancingScheduler._vote_value(("env", (("v", 1), ("v", 2)))) is None
        assert VoteBalancingScheduler._vote_value(vote(1)) == 1
        assert VoteBalancingScheduler._vote_value(("v", 1)) is None

    def test_benor_vote_classified_bare_and_in_an_envelope(self):
        """Ben-Or votes are plain sends ``("benor", iid, r, phase, vote)``,
        not RB values: the baselines' blow-up in E2 rests on reading them."""

        def benor(vote, phase=1):
            return ("benor", ("benor", 0), 1, phase, vote)

        value = VoteBalancingScheduler._vote_value
        assert value(benor(1)) == 1 and value(benor(0)) == 0
        assert value(benor((0, 1), phase=3)) == 0  # flagged phase-3 vote
        assert value(benor("?")) is None and value(benor(1)[:4]) is None
        assert value(("env", (benor(0), benor(1), benor(0)))) == 0
        assert value(("env", (("v", 1), benor(1)))) == 1
        sched = VoteBalancingScheduler(SystemConfig(n=4, seed=0), base_delay=1.0, hold=50.0)
        assert sched.delay(3, 1, benor(1), 0.0) == 50.0
        assert sched.delay(3, 4, ("env", (benor(0),)), 0.0) == 50.0
        assert sched.delay(3, 4, benor(1), 0.0) == 1.0

    def test_vote_vector_classified_by_dominant_entry(self):
        """``("abav", seq, entries)`` RB values — what a packed batch's
        votes travel as — are read like envelopes are."""

        def vector(*votes, phase="b2"):
            entries = tuple((("aba", k), 1, 1, vote) for k, vote in enumerate(votes))
            return (phase, (1, "abav", 0), ("abav", 0, entries))

        value = VoteBalancingScheduler._vote_value
        assert value(vector(1, 0, 1)) == 1
        assert value(vector(0, 0, 1)) == 0
        assert value(vector(1, 0)) == 1 and value(vector(0, 1)) == 0  # tie: first
        assert value(vector((0, (3,)), (0, ()), 1)) == 0  # flagged phase-3 votes
        assert value(vector("x", None)) is None and value(vector()) is None
        assert value(("b1", (1, "abav", 0), ("abav", 0, ("junk", (1, 2), 7)))) is None
        assert value(("b1", (1, "abav", 0), ("abav", 0, [(("aba", 0), 1, 1, 1)]))) is None
        assert value(("env", (vector(1, 1), vector(0, 0), vector(1, 0)))) == 1
        sched = VoteBalancingScheduler(SystemConfig(n=4, seed=0), base_delay=1.0, hold=50.0)
        assert sched.delay(3, 1, vector(1, 1), 0.0) == 50.0
        assert sched.delay(3, 4, vector(1, 1), 0.0) == 1.0

    def test_envelope_delay_biases_by_dominant_value(self):
        cfg = SystemConfig(n=4, seed=0)
        sched = VoteBalancingScheduler(cfg, base_delay=1.0, hold=50.0)
        env1 = ("env", (self.aba_vote(1), self.aba_vote(1)))
        env0 = ("env", (self.aba_vote(0), self.aba_vote(0)))
        # Group A (pids 1..2) gets 1-valued envelopes held, group B 0-valued.
        assert sched.delay(3, 1, env1, 0.0) == 50.0
        assert sched.delay(3, 1, env0, 0.0) == 1.0
        assert sched.delay(3, 4, env0, 0.0) == 50.0
        assert sched.delay(3, 4, env1, 0.0) == 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_balancing_still_bites_under_coalesce_votes(self, seed):
        """Against an always-failing coin the balancing schedule must keep
        a packed batch split past any round cap — if vote vectors (the
        default transport) or envelopes (slots split) fell through to the
        base delay, the run would terminate in ~2 rounds (the FIFO control
        shows exactly that)."""
        n, k = 4, 4
        rows = [[i % 2 for i in range(n)]] * k  # aligned: vectors and
        # envelopes carry same-valued votes, so classification is exact

        def run(make_scheduler):
            cfg = SystemConfig(n=n, seed=seed)
            return run_byzantine_agreement_batch(
                rows, cfg, coin=cr_coin(cfg, 1.0), scheduler=make_scheduler(cfg), max_rounds=15
            )

        balanced = run(VoteBalancingScheduler)
        assert balanced.svec_packed > 0  # the votes really rode vectors
        assert not balanced.terminated
        enveloped = run(lambda cfg: SlotSplittingScheduler(VoteBalancingScheduler(cfg)))
        assert enveloped.envelopes_pushed > 0 == enveloped.svec_packed
        assert not enveloped.terminated
        control = run(lambda cfg: FifoScheduler())
        assert control.terminated and control.max_rounds <= 4


class TestVoteVectorRouting:
    """A delivered ``("abav", seq, entries)`` vector reaches each instance
    by one lookup in the live ``"aba"`` slot table.  Whatever happens
    mid-vector, the per-instance deliveries must be those of plain per-vote
    broadcasts: one delivery event per vote, routed by the broadcast layer,
    which a crashed host drops and a recovery purges."""

    ORIGIN = 2

    @classmethod
    def deliveries(cls, entries, actions, packed):
        """Deliver ``entries`` at process 1 as one vector or as one event
        per vote; ``actions[value]`` runs when instance ``value[1]``
        receives ``value``.  Returns ``[(instance, origin, value), ...]``."""
        stack = build_stack(
            SystemConfig(n=4, seed=0), scheduler=FifoScheduler(), with_vss=False
        )
        runtime = stack.runtime
        host = runtime.host(1)
        broadcast = stack.broadcasts[1]
        got = []

        def slot(iid):
            def handler(origin, value):
                got.append((iid, origin, value))
                action = actions.get(value)
                if action is not None:
                    action(runtime, broadcast, slot)

            return handler

        for iid in ("a", "b", "c"):
            broadcast.subscribe_slot("aba", iid, slot(iid))
        mux = VoteVectorMux(host, broadcast)
        if packed:
            host.register_handler("vec", lambda src, p: mux._on_rb(src, p[1]))
            runtime.queue.push(1.0, 1, cls.ORIGIN, ("vec", ("abav", 0, entries)))
        else:
            route = broadcast._route  # the RB layer's delivery routing
            host.register_handler(
                "vote", lambda src, p: route(broadcast._topic_handlers, src, p[1])
            )
            for k, entry in enumerate(entries):
                runtime.queue.push(1.0 + k, 1, cls.ORIGIN, ("vote", ("aba", *entry)))
        runtime.run_to_quiescence()
        return got

    def check(self, entries, actions, expected):
        packed = self.deliveries(entries, actions, packed=True)
        plain = self.deliveries(entries, actions, packed=False)
        assert packed == plain
        assert [(iid, value[2:]) for iid, _, value in packed] == expected

    @staticmethod
    def vote(iid, r):
        return ("aba", iid, r, 1, 0)

    def test_crash_mid_vector_drops_the_rest(self):
        entries = (("a", 1, 1, 0), ("b", 1, 1, 0), ("c", 1, 1, 0), ("a", 2, 1, 0))
        crash = {self.vote("b", 1): lambda rt, bc, slot: rt.host(1).crash()}
        self.check(entries, crash, [("a", (1, 1, 0)), ("b", (1, 1, 0))])

    def test_crash_recover_mid_vector_drops_the_rest(self):
        def cycle(rt, bc, slot):
            rt.host(1).crash()
            rt.recover(1)

        entries = (("a", 1, 1, 0), ("b", 1, 1, 0), ("c", 1, 1, 0), ("a", 2, 1, 0))
        self.check(
            entries, {self.vote("b", 1): cycle}, [("a", (1, 1, 0)), ("b", (1, 1, 0))]
        )

    def test_instance_halting_mid_vector_drops_its_later_entries(self):
        halt = {self.vote("a", 1): lambda rt, bc, slot: bc.unsubscribe_slot("aba", "a")}
        entries = (("a", 1, 1, 0), ("b", 1, 1, 0), ("a", 2, 1, 0), ("c", 1, 1, 0))
        self.check(
            entries, halt, [("a", (1, 1, 0)), ("b", (1, 1, 0)), ("c", (1, 1, 0))]
        )

    def test_unhashable_and_unknown_instance_ids_drop(self):
        entries = (
            ("a", 1, 1, 0),
            (["unhashable"], 1, 1, 0),
            ({"x": 1}, 1, 1, 0),
            ("zz", 1, 1, 0),
            ("b", 1, 1, 0),
        )
        self.check(entries, {}, [("a", (1, 1, 0)), ("b", (1, 1, 0))])

    def test_emptied_table_mid_vector(self):
        def empty(rt, bc, slot):
            for iid in ("a", "b", "c"):
                bc.unsubscribe_slot("aba", iid)

        entries = (("a", 1, 1, 0), ("b", 1, 1, 0), ("c", 1, 1, 0))
        self.check(entries, {self.vote("a", 1): empty}, [("a", (1, 1, 0))])

    def test_table_replaced_mid_vector(self):
        """An emptied table gives way to a new one within the vector: the
        entries for the new instance are delivered, as plain votes are."""

        def replace(rt, bc, slot):
            for iid in ("a", "b", "c"):
                bc.unsubscribe_slot("aba", iid)
            bc.subscribe_slot("aba", "d", slot("d"))

        entries = (("a", 1, 1, 0), ("b", 1, 1, 0), ("d", 1, 1, 0), ("d", 2, 1, 0))
        self.check(
            entries,
            {self.vote("a", 1): replace},
            [("a", (1, 1, 0)), ("d", (1, 1, 0)), ("d", (2, 1, 0))],
        )


class TestBatchVoteCoalescing:
    """All K instances' votes per (round, phase) ride one vector, what is
    left one envelope — the ideal-coin batch becomes ~K×-shaped."""

    def test_k16_ideal_decisions_identical_and_k_shaped(self):
        inputs = split_matrix(7, 16)
        off = run_batch(inputs, 11, IDEAL, split=per_message)
        on = run_batch(inputs, 11, IDEAL)
        assert on.agreed and off.agreed
        for iid in off.instance_ids:
            assert on.results[iid].decisions == off.results[iid].decisions, iid
            assert on.results[iid].rounds == off.results[iid].rounds, iid
        # All 16 instances' traffic folds into (nearly) one instance's
        # worth of events: >= 8x fewer for K = 16.
        assert on.events_dispatched * 8 <= off.events_dispatched

    def test_svss_batch_decisions_identical_on_off(self):
        inputs = split_matrix(4, 3)
        off = run_batch(inputs, 3, "svss", split=per_message)
        on = run_batch(inputs, 3, "svss")
        assert on.agreed and off.agreed
        for iid in off.instance_ids:
            assert on.results[iid].decisions == off.results[iid].decisions, iid
        assert on.events_dispatched * 4 < off.events_dispatched

    def test_scenario_coalesce_axis(self):
        from repro.sim.experiments import Scenario, run_scenario

        packed = run_scenario(
            Scenario(n=7, seed=1, scheduler="fifo", coin=IDEAL, batch=4)
        )
        assert packed.agreed and packed.svec_packed > 0  # K votes, one vector
        # Packing is the scheduler axis: same seed, same uniform delays,
        # with and without the envelope veto.
        on = run_scenario(Scenario(n=4, seed=1, scheduler="uniform", coin="svss"))
        off = run_scenario(Scenario(n=4, seed=1, scheduler="env-split", coin="svss"))
        assert off.agreed and on.agreed
        assert on.envelopes_pushed > 0 == off.envelopes_pushed
        assert (
            on.logical_messages / on.events_dispatched
            > off.logical_messages / off.events_dispatched
        )
        assert on.events_dispatched < off.events_dispatched
