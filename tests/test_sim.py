"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import random

import pytest

from repro.config import SystemConfig
from repro.errors import DeadlockError, SimulationError
from repro.sim.events import BucketQueue, EventQueue
from repro.sim.runtime import Runtime
from repro.sim.scheduler import (
    ExponentialDelayScheduler,
    FifoScheduler,
    IntermittentPartitionScheduler,
    Scheduler,
    TargetedDelayScheduler,
    UniformDelayScheduler,
)
from repro.sim.tracing import Trace


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(5.0, 1, 2, "late")
        q.push(1.0, 1, 2, "early")
        assert q.pop()[4] == "early"
        assert q.pop()[4] == "late"

    def test_ties_broken_by_sequence(self):
        q = EventQueue()
        q.push(1.0, 1, 2, "first")
        q.push(1.0, 1, 2, "second")
        assert q.pop()[4] == "first"
        assert q.pop()[4] == "second"

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(1.0, 1, 1, None)
        assert q and len(q) == 1

    def test_pushed_total_counts_all(self):
        q = EventQueue()
        for _ in range(5):
            q.push(1.0, 1, 1, None)
        q.pop()
        assert q.pushed_total == 5


class TestBucketQueue:
    """The calendar queue must be observationally identical to the heap."""

    def test_orders_by_time_and_fifo_within_time(self):
        q = BucketQueue()
        q.push(5.0, 1, 2, "late")
        q.push(1.0, 1, 2, "early")
        q.push(1.0, 1, 2, "early-2")
        assert [q.pop()[4] for _ in range(3)] == ["early", "early-2", "late"]

    def test_len_bool_pushed_total(self):
        q = BucketQueue()
        assert not q
        for _ in range(5):
            q.push(1.0, 1, 1, None)
        q.pop()
        assert q and len(q) == 4 and q.pushed_total == 5

    def test_push_fanout_matches_individual_pushes(self):
        fan, ind = BucketQueue(), BucketQueue()
        fan.push_fanout(2.0, 9, ("m",), 4)
        for dst in range(1, 5):
            ind.push(2.0, dst, 9, ("m",))
        assert [fan.pop() for _ in range(4)] == [ind.pop() for _ in range(4)]
        assert fan.pushed_total == ind.pushed_total == 4

    def test_interleaved_matches_heap_queue(self):
        """Fuzz: with heavily shared timestamps, pop order equals the heap's."""
        rng = random.Random(3)
        heap_q, bucket_q = EventQueue(), BucketQueue()
        popped_heap, popped_bucket = [], []
        clock = 0.0
        for _ in range(500):
            if rng.random() < 0.6 or not heap_q:
                time = clock + rng.choice([1.0, 2.0, 3.0])
                dst = rng.randrange(1, 5)
                heap_q.push(time, dst, 0, "p")
                bucket_q.push(time, dst, 0, "p")
            else:
                event = heap_q.pop()
                popped_heap.append(event)
                popped_bucket.append(bucket_q.pop())
                clock = event[0]  # simulated now advances like the runtime's
        while heap_q:
            popped_heap.append(heap_q.pop())
            popped_bucket.append(bucket_q.pop())
        assert popped_heap == popped_bucket


class TestSchedulers:
    def test_base_scheduler_unit_delay(self):
        assert Scheduler().delay(1, 2, None, 0.0) == 1.0
        assert FifoScheduler().delay(1, 2, None, 9.0) == 1.0

    def test_uniform_in_range(self):
        s = UniformDelayScheduler(random.Random(0), low=0.5, high=2.0)
        for _ in range(200):
            d = s.delay(1, 2, None, 0.0)
            assert 0.5 <= d <= 2.0

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ValueError):
            UniformDelayScheduler(random.Random(0), low=0, high=1)
        with pytest.raises(ValueError):
            UniformDelayScheduler(random.Random(0), low=2, high=1)

    def test_exponential_positive(self):
        s = ExponentialDelayScheduler(random.Random(0), mean=2.0)
        assert all(s.delay(1, 2, None, 0.0) > 0 for _ in range(100))

    def test_targeted_slows_victims(self):
        base = FifoScheduler()
        s = TargetedDelayScheduler(base, victims={3}, factor=50.0)
        assert s.delay(1, 2, None, 0.0) == 1.0
        assert s.delay(3, 2, None, 0.0) == 50.0
        assert s.delay(2, 3, None, 0.0) == 50.0

    def test_targeted_rejects_speedup(self):
        with pytest.raises(ValueError):
            TargetedDelayScheduler(FifoScheduler(), {1}, factor=0.5)

    def test_partition_holds_crossing_messages(self):
        s = IntermittentPartitionScheduler(
            FifoScheduler(), group={1, 2}, period=10.0, hold=5.0
        )
        # now=0: inside the partition window, crossing costs extra
        assert s.delay(1, 3, None, 0.0) == 6.0
        assert s.delay(1, 2, None, 0.0) == 1.0
        # now=6: window open
        assert s.delay(1, 3, None, 6.0) == 1.0

    def test_describe_strings(self):
        assert "Targeted" in TargetedDelayScheduler(FifoScheduler(), {1}).describe()
        assert "Uniform" in UniformDelayScheduler(random.Random(0)).describe()

    def test_partition_phase_stable_at_large_times(self):
        """Invariant: the window of period ``k`` is ``[k*p, k*p + p/2)``,
        held exactly (``math.fmod``) even at ``now > 1e12``."""
        s = IntermittentPartitionScheduler(
            FifoScheduler(), group={1, 2}, period=50.0, hold=25.0
        )
        big = 1e12  # an exact multiple of 50.0, far beyond any real run
        assert s.delay(1, 3, None, big) == 26.0  # phase 0: window closed
        assert s.delay(1, 3, None, big + 10.0) == 26.0  # phase 10 < 25
        assert s.delay(1, 3, None, big + 25.0) == 1.0  # phase 25: open
        assert s.delay(1, 3, None, big + 49.0) == 1.0  # phase 49: still open
        assert s.delay(1, 3, None, big + 50.0) == 26.0  # next period closes
        # Non-crossing traffic never pays, whatever the phase.
        assert s.delay(1, 2, None, big) == 1.0

    def test_fixed_delay_hint(self):
        """Only schedulers that provably return a constant advertise one."""
        assert Scheduler().fixed_delay() == 1.0
        assert FifoScheduler().fixed_delay() == 1.0
        assert UniformDelayScheduler(random.Random(0)).fixed_delay() is None
        assert TargetedDelayScheduler(FifoScheduler(), {1}).fixed_delay() is None
        assert (
            IntermittentPartitionScheduler(FifoScheduler(), {1}).fixed_delay()
            is None
        )

        class QuietlyOverridden(Scheduler):
            def delay(self, src, dst, payload, now):
                return 2.0

        # Overriding delay() without fixed_delay() must drop the hint.
        assert QuietlyOverridden().fixed_delay() is None


class _Recorder:
    """Minimal module recording deliveries on a host."""

    def __init__(self, host, tag="ping"):
        self.got = []
        host.register_handler(tag, lambda src, payload: self.got.append((src, payload)))


class TestRuntime:
    def test_delivery(self):
        cfg = SystemConfig(n=3, t=0, seed=0)
        rt = Runtime(cfg)
        rec = _Recorder(rt.host(2))
        rt.host(1).send(2, ("ping", 42), "test")
        rt.run_to_quiescence()
        assert rec.got == [(1, ("ping", 42))]

    def test_send_all_includes_self(self):
        cfg = SystemConfig(n=3, t=0, seed=0)
        rt = Runtime(cfg)
        recs = {pid: _Recorder(rt.host(pid)) for pid in cfg.pids}
        rt.host(1).send_all(("ping", 0), "test")
        rt.run_to_quiescence()
        assert all(len(r.got) == 1 for r in recs.values())

    def test_determinism_same_seed(self):
        def run(seed):
            cfg = SystemConfig(n=4, seed=seed)
            rt = Runtime(cfg)
            order = []
            for pid in cfg.pids:
                rt.host(pid).register_handler(
                    "m", lambda src, payload, pid=pid: order.append((pid, src, payload))
                )
            for pid in cfg.pids:
                rt.host(pid).send_all(("m", pid), "test")
            rt.run_to_quiescence()
            return order

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_crashed_process_neither_sends_nor_receives(self):
        cfg = SystemConfig(n=3, t=1, seed=0)
        rt = Runtime(cfg)
        rec = _Recorder(rt.host(2))
        rt.host(1).crash()
        rt.host(1).send(2, ("ping", 1), "test")
        rt.host(2).send(1, ("ping", 1), "test")  # delivered to a corpse
        rt.run_to_quiescence()
        assert rec.got == []

    def test_run_until_predicate(self):
        cfg = SystemConfig(n=2, t=0, seed=0)
        rt = Runtime(cfg)
        rec = _Recorder(rt.host(2))
        for _ in range(10):
            rt.host(1).send(2, ("ping", 0), "test")
        dispatched = rt.run_until(lambda: len(rec.got) >= 3)
        assert len(rec.got) == 3
        assert dispatched == 3

    def test_run_until_deadlock_raises(self):
        cfg = SystemConfig(n=2, t=0, seed=0)
        rt = Runtime(cfg)
        with pytest.raises(DeadlockError):
            rt.run_until(lambda: False)

    def test_max_events_guard(self):
        cfg = SystemConfig(n=2, t=0, seed=0)
        rt = Runtime(cfg)

        # ping-pong forever
        def bounce(src, payload, me):
            rt.host(me).send(3 - me, payload, "test")

        rt.host(1).register_handler("b", lambda s, p: bounce(s, p, 1))
        rt.host(2).register_handler("b", lambda s, p: bounce(s, p, 2))
        rt.host(1).send(2, ("b",), "test")
        with pytest.raises(SimulationError):
            rt.run_to_quiescence(max_events=1000)

    def test_bad_scheduler_delay_rejected(self):
        class Broken(Scheduler):
            def delay(self, src, dst, payload, now):
                return 0.0

        cfg = SystemConfig(n=2, t=0, seed=0)
        rt = Runtime(cfg, scheduler=Broken())
        with pytest.raises(SimulationError):
            rt.host(1).send(2, ("x",), "test")

    def test_unknown_destination_rejected(self):
        cfg = SystemConfig(n=2, t=0, seed=0)
        rt = Runtime(cfg)
        with pytest.raises(SimulationError):
            rt.host(1).send(99, ("x",), "test")

    def test_malformed_payloads_dropped(self):
        cfg = SystemConfig(n=2, t=0, seed=0)
        rt = Runtime(cfg)
        rec = _Recorder(rt.host(2))
        rt.host(1).send(2, ("unknown-tag", 1), "test")
        rt.run_to_quiescence()
        assert rec.got == []

    def test_outbound_filter_drop_and_multiply(self):
        cfg = SystemConfig(n=2, t=1, seed=0)
        rt = Runtime(cfg)
        rec = _Recorder(rt.host(2))
        host = rt.host(1)
        host.outbound_filter = lambda dst, payload: None
        host.send(2, ("ping", 1), "test")
        host.outbound_filter = lambda dst, payload: [payload, payload, payload]
        host.send(2, ("ping", 2), "test")
        rt.run_to_quiescence()
        assert [p for _, p in rec.got] == [("ping", 2)] * 3

    def test_sim_time_advances_monotonically(self):
        cfg = SystemConfig(n=3, t=0, seed=1)
        rt = Runtime(cfg)
        times = []
        for pid in cfg.pids:
            rt.host(pid).register_handler("m", lambda s, p: times.append(rt.now))
        for pid in cfg.pids:
            rt.host(pid).send_all(("m",), "test")
        rt.run_to_quiescence()
        assert times == sorted(times)
        assert rt.now > 0


def _drain_by_step(rt):
    while rt.step():
        pass


class TestFlatDispatch:
    """The hot loop must keep ``deliver``'s lenient semantics."""

    def test_queue_selection(self):
        cfg = SystemConfig(n=3, t=0, seed=0)
        assert isinstance(Runtime(cfg, scheduler=FifoScheduler()).queue, BucketQueue)
        assert isinstance(Runtime(cfg).queue, EventQueue)  # uniform delays

    @pytest.mark.parametrize("scheduler", [None, FifoScheduler()])
    def test_malformed_payloads_dropped_on_fast_path(self, scheduler):
        """Byzantine peers can put arbitrary bytes on the wire; the hot
        loop must drop unknown tags, unhashable tags and non-tuple garbage
        as silently as ``deliver`` does, on both queue flavours."""
        self._malformed_payloads_dropped(scheduler, Runtime.run_to_quiescence)

    @pytest.mark.parametrize("scheduler", [None, FifoScheduler()])
    def test_malformed_payloads_dropped_by_step(self, scheduler):
        self._malformed_payloads_dropped(scheduler, _drain_by_step)

    @staticmethod
    def _malformed_payloads_dropped(scheduler, drain):
        cfg = SystemConfig(n=2, t=1, seed=0)
        garbage = [
            ("unknown-tag", 1), (), None, 42, "ping", [1, 2], {"a": 1},
            ([1, 2], "x"), ({"a": 1},),
        ]
        rt = Runtime(cfg, scheduler=scheduler)
        rec = _Recorder(rt.host(2))
        evil = rt.host(1)
        evil.outbound_filter = lambda dst, payload: garbage
        evil.send(2, ("x",), "test")
        evil.outbound_filter = None
        evil.send(2, ("ping", "ok"), "test")
        drain(rt)
        assert [p for _, p in rec.got] == [("ping", "ok")]

    def test_deliver_drops_malformed_payloads(self):
        rt = Runtime(SystemConfig(n=2, t=1, seed=0))
        rec = _Recorder(rt.host(2))
        for payload in [(), None, 42, [1, 2], ([1, 2], "x"), ({"a": 1},)]:
            rt.host(2).deliver(1, payload)
        assert rec.got == []

    @pytest.mark.parametrize(
        "drain", [Runtime.run_to_quiescence, _drain_by_step], ids=["hot-loop", "step"]
    )
    @pytest.mark.parametrize("scheduler", [None, FifoScheduler()])
    def test_handler_type_error_still_surfaces(self, scheduler, drain):
        """Only the lookup is lenient: a handler's own ``TypeError`` is a
        bug and must not be mistaken for an unhashable tag."""
        cfg = SystemConfig(n=2, t=0, seed=0)

        def broken(src, payload):
            raise TypeError("handler bug")

        rt = Runtime(cfg, scheduler=scheduler)
        rt.host(2).register_handler("ping", broken)
        rt.host(1).send(2, ("ping", 1), "test")
        with pytest.raises(TypeError, match="handler bug"):
            drain(rt)
        with pytest.raises(TypeError, match="handler bug"):
            rt.host(2).deliver(1, ("ping", 2))

    def test_crash_after_freeze_stops_fast_path_delivery(self):
        cfg = SystemConfig(n=2, t=1, seed=0)
        rt = Runtime(cfg, scheduler=FifoScheduler())
        rec = _Recorder(rt.host(2))
        rt.host(1).send(2, ("ping", 1), "test")
        rt.run_to_quiescence()
        assert len(rec.got) == 1
        rt.host(2).crash()  # after events were dispatched
        rt.host(1).send(2, ("ping", 2), "test")
        rt.run_to_quiescence()
        assert len(rec.got) == 1

    def test_byzantine_host_still_receives(self):
        cfg = SystemConfig(n=2, t=1, seed=0)
        rt = Runtime(cfg)
        rec = _Recorder(rt.host(2))
        rt.host(2).behavior = object()  # marked byzantine before the run
        rt.host(1).send(2, ("ping", 1), "test")
        rt.run_to_quiescence()
        assert [p for _, p in rec.got] == [("ping", 1)]

    def test_send_all_fast_path_counts_and_delivers_like_sends(self):
        """One ``send_all`` is n ``send`` calls in destination order, on the
        one-push calendar fan-out and under seeded per-message delays."""

        def run(make_scheduler, fan_out):
            cfg = SystemConfig(n=4, seed=2)
            rt = Runtime(cfg, scheduler=make_scheduler())
            recs = {pid: _Recorder(rt.host(pid)) for pid in cfg.pids}
            if fan_out:
                rt.host(1).send_all(("ping", 7), "layer-a")
            else:
                for dst in cfg.pids:
                    rt.host(1).send(dst, ("ping", 7), "layer-a")
            rt.run_to_quiescence()
            got = {pid: r.got for pid, r in recs.items()}
            return got, dict(rt.trace.messages_by_layer), rt.queue.pushed_total, rt.now

        for make_scheduler in (FifoScheduler, lambda: None):
            assert run(make_scheduler, True) == run(make_scheduler, False)

    def test_send_all_respects_outbound_filter(self):
        cfg = SystemConfig(n=3, t=1, seed=0)
        rt = Runtime(cfg, scheduler=FifoScheduler())
        recs = {pid: _Recorder(rt.host(pid)) for pid in cfg.pids}
        rt.host(1).outbound_filter = lambda dst, payload: (
            None if dst == 2 else payload
        )
        rt.host(1).send_all(("ping", 0), "test")
        rt.run_to_quiescence()
        assert [len(recs[pid].got) for pid in cfg.pids] == [1, 0, 1]

    def test_run_until_on_change_waits_for_notifications(self):
        cfg = SystemConfig(n=2, t=0, seed=0)
        rt = Runtime(cfg, scheduler=FifoScheduler())
        seen = []

        def handler(src, payload):
            seen.append(payload)
            if len(seen) == 3:  # the "module" announces its state change
                rt.notify_state_change()

        rt.host(2).register_handler("m", handler)
        for i in range(6):
            rt.host(1).send(2, ("m", i), "test")
        before = rt.predicate_evals
        rt.run_until(lambda: len(seen) >= 3, on_change=True)
        assert len(seen) == 3
        # One initial check, one re-check on the (single) notification.
        assert rt.predicate_evals - before == 2

    def test_run_until_early_return_keeps_bucket_queue_poppable(self):
        """Regression: a wait resolving on a bucket's last event must not
        strand an empty deque at the head of the calendar queue — later
        ``step()``/``run_steps()`` pops have to keep working."""
        cfg = SystemConfig(n=2, t=0, seed=0)
        rt = Runtime(cfg, scheduler=FifoScheduler())
        rec = _Recorder(rt.host(2))
        rt.host(1).send(2, ("ping", 1), "test")  # arrives at t=1
        rt.run_to_quiescence()
        rt.host(1).send(2, ("ping", 2), "test")  # t=2 (sole event at t=2)
        rt.host(1).send(2, ("ping", 3), "test")  # t=2 bucket-mate
        rt.run_until(lambda: len(rec.got) >= 2)  # returns mid-bucket
        rt.host(1).send(2, ("ping", 4), "test")  # t=3
        assert rt.run_steps(5) == 2  # drains t=2 leftover, then t=3
        assert [p[1] for _, p in rec.got] == [1, 2, 3, 4]

    def test_run_until_early_return_on_last_bucket_event_then_pop(self):
        cfg = SystemConfig(n=2, t=0, seed=0)
        rt = Runtime(cfg, scheduler=FifoScheduler())
        rec = _Recorder(rt.host(2))
        rt.host(1).send(2, ("ping", 1), "test")  # t=1
        rt.run_until(lambda: len(rec.got) >= 1)  # t=1 bucket fully drained
        rt.host(1).send(2, ("ping", 2), "test")  # t=2
        assert rt.queue.pop()[4] == ("ping", 2)

    def test_run_until_on_change_rechecks_at_drain(self):
        """A predicate whose module never notifies must still resolve at
        quiescence instead of raising a spurious DeadlockError."""
        cfg = SystemConfig(n=2, t=0, seed=0)
        rt = Runtime(cfg, scheduler=FifoScheduler())
        rec = _Recorder(rt.host(2))
        rt.host(1).send(2, ("ping", 0), "test")
        dispatched = rt.run_until(lambda: len(rec.got) >= 1, on_change=True)
        assert dispatched == 1


class TestTracing:
    def test_message_counting_by_layer(self):
        cfg = SystemConfig(n=2, t=0, seed=0)
        rt = Runtime(cfg)
        rt.host(1).send(2, ("x",), "alpha")
        rt.host(1).send(2, ("x",), "alpha")
        rt.host(1).send(2, ("x",), "beta")
        assert rt.trace.messages_by_layer == {"alpha": 2, "beta": 1}
        assert rt.trace.total_messages == 3

    def test_shun_recording(self):
        trace = Trace()
        trace.record_shun(1, 2, ("s",), 0.0)
        trace.record_shun(1, 2, ("s2",), 1.0)
        trace.record_shun(3, 2, ("s",), 2.0)
        assert len(trace.shun_records) == 3
        assert trace.shun_pairs() == {(1, 2), (3, 2)}

    def test_summary_keys(self):
        trace = Trace()
        trace.record_send("x")
        s = trace.summary()
        assert s["total_messages"] == 1
        # Messages and shuns only: events are a run counter (``RunCounters``),
        # bytes are the codec's.
        assert set(s) == {"messages", "total_messages", "shun_events", "shun_pairs"}
