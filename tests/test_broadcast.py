"""Tests for Weak Reliable Broadcast and Reliable Broadcast (Appendix A)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.behaviors import MutatingBehavior, SilentBehavior
from repro.broadcast.manager import (
    _ACCEPTED,
    _COUNTS3,
    _FIRST3,
    _LEAD,
    _N3,
    BroadcastManager,
)
from repro.config import SystemConfig
from repro.errors import ProtocolError
from repro.sim.runtime import Runtime
from repro.sim.scheduler import ExponentialDelayScheduler


def make_system(n: int, seed: int = 0, scheduler=None):
    cfg = SystemConfig(n=n, seed=seed)
    rt = Runtime(cfg, scheduler=scheduler)
    managers = {pid: BroadcastManager(rt.host(pid)) for pid in cfg.pids}
    return cfg, rt, managers


def subscribe_all(cfg, managers, topic="demo"):
    delivered: dict[int, list] = {pid: [] for pid in cfg.pids}
    for pid in cfg.pids:
        managers[pid].subscribe(
            topic, lambda origin, value, pid=pid: delivered[pid].append((origin, value))
        )
    return delivered


class TestReliableBroadcastHappyPath:
    def test_all_deliver_same_value(self):
        cfg, rt, managers = make_system(4)
        delivered = subscribe_all(cfg, managers)
        managers[1].broadcast((1, "demo", 0), ("demo", "payload"))
        rt.run_to_quiescence()
        for pid in cfg.pids:
            assert delivered[pid] == [(1, ("demo", "payload"))]

    def test_message_count_formula(self):
        """RB costs exactly 2n^2 + n messages with no faults (E10 shape)."""
        for n in (4, 7, 10):
            cfg, rt, managers = make_system(n)
            subscribe_all(cfg, managers)
            managers[1].broadcast((1, "demo", 0), ("demo", "x"))
            rt.run_to_quiescence()
            assert rt.trace.total_messages == 2 * n * n + n

    def test_many_concurrent_broadcasts(self):
        cfg, rt, managers = make_system(4, seed=3)
        delivered = subscribe_all(cfg, managers)
        for pid in cfg.pids:
            for c in range(3):
                managers[pid].broadcast((pid, "demo", c), ("demo", (pid, c)))
        rt.run_to_quiescence()
        for pid in cfg.pids:
            assert len(delivered[pid]) == 12
            assert {v for _, v in delivered[pid]} == {
                ("demo", (p, c)) for p in cfg.pids for c in range(3)
            }

    def test_duplicate_bid_per_sender_delivers_once(self):
        cfg, rt, managers = make_system(4)
        delivered = subscribe_all(cfg, managers)
        managers[1].broadcast((1, "demo", 0), ("demo", "x"))
        rt.run_to_quiescence()
        # re-broadcasting the same bid does not deliver again
        managers[1].broadcast((1, "demo", 0), ("demo", "x"))
        rt.run_to_quiescence()
        assert all(len(delivered[pid]) == 1 for pid in cfg.pids)

    def test_delivery_under_heavy_reordering(self):
        cfg = SystemConfig(n=7, seed=5)
        rt = Runtime(
            cfg, scheduler=ExponentialDelayScheduler(cfg.derive_rng("s"), mean=10.0)
        )
        managers = {pid: BroadcastManager(rt.host(pid)) for pid in cfg.pids}
        delivered = subscribe_all(cfg, managers)
        for pid in cfg.pids:
            managers[pid].broadcast((pid, "demo", 0), ("demo", pid))
        rt.run_to_quiescence()
        for pid in cfg.pids:
            assert len(delivered[pid]) == 7


class TestOriginAuthentication:
    def test_bid_must_start_with_own_pid(self):
        cfg, rt, managers = make_system(4)
        with pytest.raises(ProtocolError):
            managers[1].broadcast((2, "demo", 0), ("demo", "x"))
        with pytest.raises(ProtocolError):
            managers[1].broadcast("not-a-tuple", ("demo", "x"))

    def test_spoofed_b1_ignored(self):
        """A byzantine process cannot start a broadcast in another's name."""
        cfg, rt, managers = make_system(4)
        delivered = subscribe_all(cfg, managers)
        # Process 2 sends raw type-1 messages claiming origin 1.
        rt.host(2).send_all(("b1", (1, "demo", 0), ("demo", "forged")), "rb")
        rt.run_to_quiescence()
        assert all(delivered[pid] == [] for pid in cfg.pids)


class TestAgreementUnderEquivocation:
    def equivocate(self, n, seed):
        """Origin 1 sends different type-1 values to each half of the system
        (bypassing the manager), all other traffic honest."""
        cfg, rt, managers = make_system(n, seed=seed)
        delivered = subscribe_all(cfg, managers)
        host = rt.host(1)
        for dst in cfg.pids:
            value = ("demo", "A") if dst % 2 == 0 else ("demo", "B")
            host.send(dst, ("b1", (1, "demo", 0), value), "rb")
        rt.run_to_quiescence()
        return cfg, delivered

    @pytest.mark.parametrize("seed", range(8))
    def test_no_two_processes_deliver_different_values(self, seed):
        cfg, delivered = self.equivocate(4, seed)
        values = {v for msgs in delivered.values() for _, v in msgs}
        assert len(values) <= 1

    @pytest.mark.parametrize("seed", range(4))
    def test_totality_if_any_delivers_all_deliver(self, seed):
        cfg, delivered = self.equivocate(7, seed)
        counts = [len(delivered[pid]) for pid in cfg.pids]
        assert counts == [0] * 7 or counts == [1] * 7


class TestFaultTolerance:
    def test_t_silent_processes_do_not_block(self):
        cfg = SystemConfig(n=4, seed=2)
        rt = Runtime(cfg)
        managers = {pid: BroadcastManager(rt.host(pid)) for pid in cfg.pids}
        delivered = subscribe_all(cfg, managers)
        SilentBehavior().install(rt.host(4))
        managers[1].broadcast((1, "demo", 0), ("demo", "x"))
        rt.run_to_quiescence()
        for pid in (1, 2, 3):
            assert delivered[pid] == [(1, ("demo", "x"))]

    def test_t_mutators_cannot_forge_delivery(self):
        """With t byzantine mutators, every delivered value was actually
        broadcast by the origin (or nothing is delivered)."""
        for seed in range(6):
            cfg = SystemConfig(n=4, seed=seed)
            rt = Runtime(cfg)
            managers = {pid: BroadcastManager(rt.host(pid)) for pid in cfg.pids}
            delivered = subscribe_all(cfg, managers)
            MutatingBehavior(random.Random(seed), rate=0.8).install(rt.host(2))
            managers[1].broadcast((1, "demo", 0), ("demo", "genuine"))
            rt.run_to_quiescence()
            for pid in (1, 3, 4):
                assert all(
                    v == ("demo", "genuine") for _, v in delivered[pid]
                ), delivered[pid]

    def test_nonfaulty_sender_delivers_despite_mutator(self):
        hits = 0
        for seed in range(6):
            cfg = SystemConfig(n=4, seed=seed)
            rt = Runtime(cfg)
            managers = {pid: BroadcastManager(rt.host(pid)) for pid in cfg.pids}
            delivered = subscribe_all(cfg, managers)
            MutatingBehavior(random.Random(seed), rate=0.5).install(rt.host(3))
            managers[1].broadcast((1, "demo", 0), ("demo", "v"))
            rt.run_to_quiescence()
            if all(delivered[pid] == [(1, ("demo", "v"))] for pid in (1, 2, 4)):
                hits += 1
        # Weak termination holds in every run: the dealer is nonfaulty.
        assert hits == 6

    def test_garbage_payloads_ignored(self):
        cfg, rt, managers = make_system(4)
        delivered = subscribe_all(cfg, managers)
        host = rt.host(2)
        host.send_all(("b1",), "rb")
        host.send_all(("b2", "bid-not-tuple", "v"), "rb")
        host.send_all(("b3", (2, "demo"), ["unhashable"]), "rb")
        rt.run_to_quiescence()
        assert all(delivered[pid] == [] for pid in cfg.pids)


class TestCounterTallies:
    """The counter-based echo bookkeeping: exact honest semantics, bounded
    memory under byzantine value floods."""

    def test_value_flood_bounded_and_honest_delivery_survives(self):
        """A byzantine sender spamming fresh values per message cannot grow
        the per-bid value map past the cap nor block the honest value."""
        cfg, rt, managers = make_system(4, seed=6)
        delivered = subscribe_all(cfg, managers)
        bid = (1, "demo", 0)
        # Host 4 floods every process with 50 distinct b2/b3 values.
        for i in range(50):
            rt.host(4).send_all(("b2", bid, ("demo", "junk", i)), "rb")
            rt.host(4).send_all(("b3", bid, ("demo", "junk", i)), "rb")
        rt.run_to_quiescence()
        cap = 2 * cfg.n + cfg.t
        from repro.broadcast.manager import _COUNTS2, _COUNTS3

        for pid in (1, 2, 3):
            inst = managers[pid]._instances[bid]
            assert len(inst[_COUNTS2]) <= cap
            assert len(inst[_COUNTS3]) <= cap
        # The honest broadcast still goes through afterwards.
        managers[1].broadcast(bid, ("demo", "genuine"))
        rt.run_to_quiescence()
        for pid in (1, 2, 3):
            assert delivered[pid] == [(1, ("demo", "genuine"))]

    def test_multi_value_sender_counted_once_per_value(self):
        """Old set-based semantics: a (sender, value) pair tallies once,
        even when the sender echoes several values."""
        cfg, rt, managers = make_system(4)
        from repro.broadcast.manager import _COUNTS2, _LEAD, _LEAD2, _N2

        bid = (1, "demo", 0)
        target = managers[1]
        for _ in range(2):
            target._on_b2(2, ("b2", bid, ("demo", "A")))
            target._on_b2(2, ("b2", bid, ("demo", "B")))
        inst = target._instances[bid]
        # The first value echoed leads: the map redirects to its tally.
        assert inst[_COUNTS2] == {("demo", "A"): _LEAD, ("demo", "B"): 1}
        assert (inst[_LEAD2], inst[_N2]) == (("demo", "A"), 1)

    def test_flood_then_honest_echoes_accept(self):
        """First values are never capped: honest echoes arriving after a
        full flood still reach the accept threshold."""
        cfg, rt, managers = make_system(4)
        bid = (1, "demo", 0)
        target = managers[2]
        got = []
        managers[2].subscribe("demo", lambda o, v: got.append(v))
        # Byzantine 4 fills the extra-value budget before any honest echo.
        for i in range(20):
            target._on_b3(4, ("b3", bid, ("demo", "junk", i)))
        for src in (1, 2, 3):
            target._on_b3(src, ("b3", bid, ("demo", "real")))
        assert got == [("demo", "real")]


class ReferenceTally:
    """Dict-only model of one bid's echo bookkeeping at one process: every
    value is hashed into a plain value -> count map, no leading value."""

    def __init__(self, n: int, t: int):
        self.n, self.t, self.cap = n, t, 2 * n + t
        self.first = {2: {}, 3: {}}
        self.counts = {2: {}, 3: {}}
        self.extra: set = set()
        self.accepted = self.sent3 = self.delivered = False
        self.emitted: list = []  # values of the b3s this process sent
        self.deliveries: list = []

    def echo(self, phase: int, src: int, value: object) -> None:
        if self.delivered or (phase == 2 and self.accepted):
            return
        first, counts = self.first[phase], self.counts[phase]
        try:
            known = value in counts
        except TypeError:
            return  # unhashable: dropped before any state
        if src not in first:
            first[src] = value
        elif first[src] == value or (phase, src, value) in self.extra:
            return
        elif not known and len(counts) >= self.cap:
            return
        else:
            self.extra.add((phase, src, value))
        count = counts[value] = counts.get(value, 0) + 1
        if phase == 2 and count >= self.n - self.t:
            self.accepted = True
        if (self.accepted if phase == 2 else count >= self.t + 1) and not self.sent3:
            self.sent3 = True
            self.emitted.append(value)
        if phase == 3 and count >= self.n - self.t:
            self.delivered = True
            self.deliveries.append(value)


class RecordingHost:
    """Stands in for the manager's host: records what it would send."""

    def __init__(self, host):
        self.pid = host.pid
        self.sent: list = []

    def send_all(self, payload, layer):
        self.sent.append(payload)


#: Echoed values: a small pool (so tallies actually reach thresholds) of
#: large tuples, the way a folded RB value is large.
VALUE_POOL = tuple(("demo", k, tuple(range(40))) for k in range(4))


def echoed_value(k: int, form: str) -> object:
    if k >= len(VALUE_POOL):
        return ("demo", "junk", k)  # flood material: many distinct values
    value = VALUE_POOL[k]
    if form == "same":
        return value  # the simulator hands every receiver the same object
    if form == "copy":
        return (value[0], value[1], tuple(list(value[2])))  # the socket path
    return (value[0], value[1], list(value[2]))  # unhashable, compares unequal


ECHOES = st.lists(
    st.tuples(
        st.sampled_from((2, 3)),
        st.integers(1, 7),
        st.one_of(st.integers(0, 3), st.integers(0, 40)),
        st.sampled_from(("same", "same", "copy", "unhashable")),
    ),
    max_size=80,
)


class TestLeadingValueTally:
    """The leading value's tally lives outside the value map and is bumped
    on identity; nothing observable may differ from the dict-only tally."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.sampled_from((4, 7)), flood=st.integers(0, 24), echoes=ECHOES)
    def test_same_accepts_deliveries_and_b3s_as_the_reference(self, n, flood, echoes):
        cfg, rt, managers = make_system(n)
        target = managers[1]
        target.host = host = RecordingHost(target.host)
        deliveries = []
        target.subscribe("demo", lambda origin, value: deliveries.append(value))
        reference = ReferenceTally(n, cfg.t)
        bid = (2, "demo", 0)
        # A flood past the 2n+t cap from one multi-value sender, then noise.
        script = [(2 + i % 2, n, 4 + i, "same") for i in range(flood)] + echoes
        for phase, src, k, form in script:
            src = (src - 1) % n + 1
            handler = target._on_b2 if phase == 2 else target._on_b3
            handler(src, (f"b{phase}", bid, echoed_value(k, form)))
            reference.echo(phase, src, echoed_value(k, form))
            assert [p[2] for p in host.sent] == reference.emitted
            assert all(p[:2] == ("b3", bid) for p in host.sent)
            assert deliveries == reference.deliveries
            assert target.delivered(bid) == reference.delivered
            if not reference.delivered and bid in target._instances:
                assert target._instances[bid][_ACCEPTED] == reference.accepted

    def test_equal_but_not_identical_echoes_share_the_leading_tally(self):
        cfg, rt, managers = make_system(4)
        target = managers[1]
        bid = (2, "demo", 0)
        for src in (1, 2):
            target._on_b3(src, ("b3", bid, echoed_value(0, "copy")))
        inst = target._instances[bid]
        assert inst[_N3] == 2 and inst[_COUNTS3] == {VALUE_POOL[0]: _LEAD}
        target._on_b3(3, ("b3", bid, echoed_value(0, "unhashable")))
        assert inst[_N3] == 2 and 3 not in inst[_FIRST3]
        target._on_b3(3, ("b3", bid, echoed_value(0, "same")))
        assert target.delivered(bid)


class TestDeliveredBidTerminalState:
    """A delivered bid keeps no tallies — one shared marker that remembers
    only whether the crusader echo went out — and still rejects replays."""

    BID = (1, "demo", 0)
    VALUE = ("demo", "real")

    def deliver_without_b1(self):
        """Process 2 delivers on three type-3 echoes, before any type-1."""
        cfg, rt, managers = make_system(4)
        target = managers[2]
        got = []
        target.subscribe("demo", lambda origin, value: got.append((origin, value)))
        for src in (1, 3, 4):
            target._on_b3(src, ("b3", self.BID, self.VALUE))
        assert got == [(1, self.VALUE)] and target.delivered(self.BID)
        return rt, target, got

    def test_delivery_collapses_the_instance_to_a_shared_marker(self):
        from repro.broadcast.manager import _DELIVERED_SENT2, _DELIVERED_UNSENT2

        cfg, rt, managers = make_system(4)
        subscribe_all(cfg, managers)
        bids = [(1, "demo", i) for i in range(5)]
        assert not managers[2].delivered(bids[0])
        for bid in bids:
            managers[1].broadcast(bid, ("demo", bid[2]))
        rt.run_to_quiescence()
        for manager in managers.values():
            assert all(manager.delivered(bid) for bid in bids)
            assert all(
                manager._instances[bid] is _DELIVERED_SENT2 for bid in bids
            )
        _, target, _ = self.deliver_without_b1()
        assert target._instances[self.BID] is _DELIVERED_UNSENT2

    def test_late_b1_is_echoed_exactly_once(self):
        """The one duty that outlives delivery."""
        rt, target, got = self.deliver_without_b1()
        pushed = rt.queue.pushed_total
        target._on_b1(1, ("b1", self.BID, self.VALUE))
        assert rt.queue.pushed_total == pushed + 4  # one b2 to everyone
        target._on_b1(1, ("b1", self.BID, self.VALUE))
        target._on_b1(1, ("b1", self.BID, ("demo", "other")))
        assert rt.queue.pushed_total == pushed + 4
        assert got == [(1, self.VALUE)]

    def test_late_echoes_floods_and_garbage_allocate_nothing(self):
        rt, target, got = self.deliver_without_b1()
        marker = target._instances[self.BID]
        pushed = rt.queue.pushed_total
        for src in (1, 2, 3, 4):
            target._on_b2(src, ("b2", self.BID, self.VALUE))
            target._on_b3(src, ("b3", self.BID, self.VALUE))
        for i in range(50):  # byzantine value flood on the delivered bid
            target._on_b2(4, ("b2", self.BID, ("demo", "junk", i)))
            target._on_b3(4, ("b3", self.BID, ("demo", "junk", i)))
        target._on_b2(4, ("b2", self.BID, ["unhashable"]))
        target._on_b3(4, ("b3", self.BID, {"un": "hashable"}))
        assert target._instances[self.BID] is marker
        assert len(target._instances) == 1
        assert rt.queue.pushed_total == pushed  # no echo, no amplification
        assert got == [(1, self.VALUE)]  # nothing re-delivered


def test_duplicate_topic_subscription_rejected():
    cfg, rt, managers = make_system(4)
    managers[1].subscribe("demo", lambda o, v: None)
    with pytest.raises(ProtocolError):
        managers[1].subscribe("demo", lambda o, v: None)
