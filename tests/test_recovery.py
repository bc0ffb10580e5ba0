"""Tests for the crash-recovery model: queue purge, wakes, epoch fences.

The model is *amnesia-free but wire-lossy* (see ``Runtime.recover``):
handler tables and modules survive a crash, queued deliveries do not.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.errors import SimulationError
from repro.sim.events import BucketQueue, EventQueue
from repro.sim.process import RECOVER_TAG
from repro.sim.runtime import Runtime


class TestQueuePurge:
    """Purge drops exactly the victim's deliveries, never control events."""

    @pytest.mark.parametrize("queue_cls", [EventQueue, BucketQueue])
    def test_purge_drops_only_victim_events(self, queue_cls):
        q = queue_cls()
        q.push(1.0, 2, 1, "to-victim")
        q.push(1.0, 3, 1, "to-other")
        q.push(2.0, 2, 4, "to-victim-later")
        q.push(3.0, 2, 0, (RECOVER_TAG,))  # runtime-origin control event
        assert q.purge(2) == 2
        assert len(q) == 2
        popped = [q.pop() for _ in range(2)]
        assert [e[4] for e in popped] == ["to-other", (RECOVER_TAG,)]

    @pytest.mark.parametrize("queue_cls", [EventQueue, BucketQueue])
    def test_purge_preserves_survivor_order(self, queue_cls):
        q = queue_cls()
        for i in range(10):
            q.push(float(1 + i % 3), 1 + i % 3, 4, i)
        expect = []
        probe = queue_cls()
        for i in range(10):
            if 1 + i % 3 != 2:
                probe.push(float(1 + i % 3), 1 + i % 3, 4, i)
        while probe:
            expect.append(probe.pop()[4])
        q.purge(2)
        got = []
        while q:
            got.append(q.pop()[4])
        assert got == expect

    @pytest.mark.parametrize("queue_cls", [EventQueue, BucketQueue])
    def test_purge_keeps_counting_pushed_total(self, queue_cls):
        q = queue_cls()
        for _ in range(5):
            q.push(1.0, 2, 1, "x")
        q.purge(2)
        # Purged events were still *sent*; recovery only undelivers them.
        assert q.pushed_total == 5 and len(q) == 0

    @pytest.mark.parametrize("queue_cls", [EventQueue, BucketQueue])
    def test_purge_noop_without_matches(self, queue_cls):
        q = queue_cls()
        q.push(1.0, 1, 3, "a")
        assert q.purge(2) == 0 and len(q) == 1


class _Recorder:
    def __init__(self, host, tag="ping"):
        self.got = []
        host.register_handler(tag, lambda src, payload: self.got.append((src, payload)))


class TestRecovery:
    def test_recover_requires_crashed(self):
        rt = Runtime(SystemConfig(n=3, t=1, seed=0))
        with pytest.raises(SimulationError):
            rt.recover(1)

    def test_immediate_recovery_purges_prior_traffic(self):
        """Messages queued while (or before) a process was down die with the
        crash; only post-recovery traffic reaches the new incarnation."""
        rt = Runtime(SystemConfig(n=3, t=1, seed=0))
        rec = _Recorder(rt.host(2))
        rt.host(1).send(2, ("ping", "pre-crash"), "test")
        rt.host(2).crash()
        rt.host(1).send(2, ("ping", "while-down"), "test")
        rt.recover(2)
        rt.host(1).send(2, ("ping", "post-recovery"), "test")
        rt.run_to_quiescence()
        assert rec.got == [(1, ("ping", "post-recovery"))]

    def test_scheduled_recovery_wake(self):
        rt = Runtime(SystemConfig(n=3, t=1, seed=0))
        rec = _Recorder(rt.host(2))
        rt.host(2).crash()
        rt.host(1).send(2, ("ping", "while-down"), "test")
        rt.schedule_recovery(2, 100.0)
        # Sent before the wake fires but scheduled to arrive after it:
        # still purged, because it is queued at recovery time.
        rt.host(1).send(2, ("ping", "also-dead"), "test")
        rt.run_to_quiescence()
        assert not rt.host(2).crashed
        assert rt.host(2).crash_epoch == 1
        assert rec.got == []

    def test_schedule_recovery_validates_time(self):
        rt = Runtime(SystemConfig(n=3, t=1, seed=0))
        with pytest.raises(SimulationError):
            rt.schedule_recovery(2, 0.0)
        with pytest.raises(SimulationError):
            rt.schedule_recovery(2, float("inf"))

    def test_peers_cannot_forge_a_wake(self):
        """A peer-sent ("recover",) payload must not resurrect anyone: only
        the runtime's own src == 0 origin is honoured."""
        rt = Runtime(SystemConfig(n=3, t=1, seed=0))
        rt.host(2).crash()
        rt.host(1).send(2, (RECOVER_TAG,), "test")
        rt.run_to_quiescence()
        assert rt.host(2).crashed
        assert rt.host(2).crash_epoch == 0

    def test_handlers_survive_recovery(self):
        """Amnesia-free: the pre-crash handler table is the re-attach."""
        rt = Runtime(SystemConfig(n=3, t=1, seed=0))
        rec = _Recorder(rt.host(2))
        rt.host(2).crash()
        rt.recover(2)
        rt.host(1).send(2, ("ping", 7), "test")
        rt.run_to_quiescence()
        assert rec.got == [(1, ("ping", 7))]

    def test_instance_slots_mutable_after_recovery(self):
        """Mid-run, a recovered host can still rotate instance slots —
        the re-registration path protocol modules use."""
        rt = Runtime(SystemConfig(n=3, t=1, seed=0))
        got = []
        rt.host(2).register_instance_handler(
            "slot", "a", lambda src, payload: got.append(payload)
        )
        rt.host(1).send(2, ("slot", "a", 1), "test")
        rt.run_to_quiescence()
        rt.host(2).crash()
        rt.recover(2)
        rt.host(2).unregister_instance_handler("slot", "a")
        rt.host(2).register_instance_handler(
            "slot", "b", lambda src, payload: got.append(payload)
        )
        rt.host(1).send(2, ("slot", "a", 2), "test")  # stale instance: dropped
        rt.host(1).send(2, ("slot", "b", 3), "test")
        rt.run_to_quiescence()
        assert got == [("slot", "a", 1), ("slot", "b", 3)]


class TestEpochFence:
    """crash→recover *within* an unpack loop must still kill the tail."""

    def test_envelope_tail_dies_across_recovery(self):
        rt = Runtime(SystemConfig(n=3, t=1, seed=0))
        host = rt.host(2)
        got = []

        def handler(src, payload):
            got.append(payload)
            # Crash and immediately recover mid-envelope: the epoch bump
            # must fence out the remaining sub-payloads even though the
            # host is live again when the loop re-checks.
            host.crash()
            rt.recover(2)

        host.register_handler("a", handler)
        host._deliver_envelope(1, ("env", (("a", 1), ("a", 2), ("a", 3))))
        assert got == [("a", 1)]
        assert host.crash_epoch == 1

    def test_envelope_tail_dies_on_plain_crash(self):
        rt = Runtime(SystemConfig(n=3, t=1, seed=0))
        host = rt.host(2)
        got = []

        def handler(src, payload):
            got.append(payload)
            host.crash()

        host.register_handler("a", handler)
        host._deliver_envelope(1, ("env", (("a", 1), ("a", 2))))
        assert got == [("a", 1)]

