"""The simulation runtime: private channels + event loop.

Models the paper's system exactly: ``n`` processes, reliable private
channels with unbounded but finite delay, delivery order chosen by the
scheduler (i.e. by the adversary).  Everything is deterministic given the
config seed, the scheduler, and the adversary.

Dispatch is *flat*: the hot loop (:meth:`Runtime._flat_run`) holds every
host's live ``tag -> handler`` dict in an array indexed by pid and inlines
``ProcessHost.deliver`` — the one routing rule — so it goes straight from
popped event to bound handler.  The dicts are the hosts' own, so handlers
may be registered and released while events flow (``docs/ARCHITECTURE.md``).
With a fixed-delay scheduler the runtime also swaps the binary heap for a
bucketed calendar queue, and a step's ``send_all`` fan-out leaves the step
window (:meth:`Runtime._emit_all`) as one batch push.  :meth:`Runtime.step`
dispatches one event through the queue's own ``pop()`` and
``ProcessHost.deliver`` and is the reference the hot loop inlines:
``tests/test_dispatch_equiv.py`` drives full runs through both and
requires the same run, and replays a committed transcript
(``tests/golden/dispatch_equiv.json``).

Waiting is notification-driven: protocol modules call
:meth:`Runtime.notify_state_change` whenever observable state changes
(a broadcast delivers, a VSS share completes, a coin lands, an agreement
round advances or decides), and :meth:`Runtime.run_until` with
``on_change=True`` re-evaluates its predicate only when the change counter
moved — O(state changes) predicate evaluations instead of O(events).

Transport coalescing is the step window (:mod:`repro.sim.window`, shared
with the socket runtime :class:`repro.net.transport.NetRuntime`): a step's
sends leave as one envelope event ``("env", (sub_payload, ...))`` per
``(src, dst)``, which the receiving host unpacks in order through its
ordinary handler table (:meth:`ProcessHost._deliver_envelope`).  The n²
MW-SVSS sessions of one coin talk between the same pairs within the same
step, so queue pushes, scheduler consultations and the hot loop's
crash/dispatch checks are paid once per envelope, while every *logical*
message still traverses its handler, the trace counters, byzantine
outbound filters (applied before buffering) and the DMM.  A scheduler
classifies a whole envelope, or advertises
:attr:`~repro.sim.scheduler.Scheduler.splits_envelopes` and nothing is
buffered: one event per logical message, delays drawn in send order
(``repro.adversary.schedulers.EnvelopeSplittingScheduler``).  Under a
fixed-delay scheduler every conversation — one (src, dst, session) stream
— delivers the bit-identical sequence of logical messages as the split
run, with the same decisions and rounds (``tests/test_coalesce.py``);
distinct conversations may regroup only within one simultaneity bucket,
which is framing, not reordering.  The session-vector muxes one layer up
(:mod:`repro.core.vectormux`) pack inside the same window.  This module
contributes the sinks (:meth:`Runtime._emit` / :meth:`Runtime._emit_all`:
schedule + push) and the hot loop's inlined open/close of the window
around every dispatched event.
"""

from __future__ import annotations

import gc
import heapq
from collections.abc import Callable

from repro.config import SystemConfig
from repro.errors import DeadlockError, SimulationError
from repro.sim.events import BucketQueue, EventQueue
from repro.sim.process import RECOVER_TAG, ProcessHost
from repro.sim.scheduler import Scheduler, default_scheduler
from repro.sim.window import StepWindow

#: Safety valve: a run dispatching more events than this is assumed stuck in
#: a livelock (no correct experiment in this repo comes close).
DEFAULT_MAX_EVENTS = 50_000_000

_INF = float("inf")


class Runtime(StepWindow):
    """Owns the hosts, the event queue, the clock, and the trace."""

    #: Read-only probe shim: ``benchmarks/e2e/worker.py:479`` reads it off
    #: a long-lived runtime.  The algebra is always the pure rows of
    #: :mod:`repro.poly.fastpath`; ROADMAP 6(a) deletes this.
    algebra_backend = "pure"

    def __init__(
        self,
        config: SystemConfig,
        scheduler: Scheduler | None = None,
    ):
        self.config = config
        self.field = config.field
        self.now = 0.0
        self.scheduler = scheduler or default_scheduler(config.derive_rng("scheduler"))
        #: Constant per-message delay, when the scheduler guarantees one
        #: (skips the per-send scheduler call and enables the calendar
        #: queue + one-push fan-outs).
        fixed = self.scheduler.fixed_delay()
        if fixed is not None and (not (fixed > 0.0) or fixed == _INF):
            raise SimulationError(
                f"scheduler advertises illegal fixed delay {fixed!r}; the "
                "model requires positive finite delays (eventual delivery)"
            )
        self._fixed_delay = fixed
        self.queue = BucketQueue() if fixed is not None else EventQueue()
        self.hosts: dict[int, ProcessHost] = {
            pid: ProcessHost(self, pid) for pid in config.pids
        }
        # Flat-dispatch state.  Index 0 unused (pids are 1..n), so event
        # destinations index directly.  ``_tables[pid]`` *is* the host's
        # live handler dict (never reassigned), not a copy of it.
        self._hosts_seq = [None, *self.hosts.values()]
        self._tables = [None, *(host._handlers for host in self.hosts.values())]
        # The step window (see :mod:`repro.sim.window`) packs unless the
        # scheduler says otherwise: ``splits_envelopes`` means it never
        # buffers, ``splits_slots`` that the muxes never pack.
        super().__init__(self.scheduler)
        #: Events dispatched over the runtime's lifetime.
        self.events_dispatched = 0
        #: ``run_until`` predicate evaluations: O(state changes) with
        #: ``on_change=True``, O(events) without.
        self.predicate_evals = 0
        self._state_version = 0
        #: Runtime invariant monitor (:class:`repro.sim.monitor.InvariantMonitor`)
        #: or None; protocol modules consult it at their observable-state
        #: transition points (decisions, rounds, shuns, coin outputs).
        self.monitor = None
        #: Delivery observation tap ``tap(src, dst, payload)`` or None,
        #: called for every dispatched event *before* routing.  This is the
        #: adaptive adversary's sensor (it sees exactly the traffic the
        #: network delivers, wire-level: envelopes and slot-vectors as
        #: such).  Snapshotted at hot-loop entry, so install it before the
        #: run starts.
        self.delivery_tap = None

    def host(self, pid: int) -> ProcessHost:
        try:
            return self.hosts[pid]
        except KeyError:
            raise SimulationError(f"no process with id {pid}") from None

    # -- notification-driven waits -------------------------------------------
    def notify_state_change(self) -> None:
        """Protocol modules call this when observable state changed.

        ``run_until(..., on_change=True)`` only re-evaluates its predicate
        after the version counter moved, so anything a wait predicate can
        observe (broadcast deliveries, VSS completions and outputs, coin
        outputs, agreement rounds/decisions) must be announced here by the
        module that changed it.
        """
        self._state_version += 1

    # -- crash recovery ------------------------------------------------------
    def recover(self, pid: int, at: float | None = None) -> None:
        """Bring a crashed process back: immediately (``at=None``) or at
        simulated time ``at`` via a scheduled recovery wake.

        Recovery is *amnesia-free but wire-lossy*: the host's handler
        tables, slot tables and attached modules survive untouched (the
        ``ProtocolModule.attach`` wiring from before the crash is the
        re-attach), while every delivery queued for the host — pre-crash
        or during the outage — is purged, so the recovered incarnation
        only sees traffic sent after it rejoined.  That is the standard
        crash-recovery network model: a rebooted node keeps its disk, not
        its socket buffers.
        """
        host = self.host(pid)
        if at is None:
            if not host.crashed:
                raise SimulationError(f"process {pid} is not crashed")
            self._apply_recovery(host)
            return
        self.schedule_recovery(pid, at)

    def schedule_recovery(self, pid: int, at: float) -> None:
        """Queue a recovery wake for ``pid`` at time ``at`` (> now).

        The wake is an ordinary event with the unforgeable runtime origin
        ``src == 0``; if the host is not crashed when it arrives, the wake
        is dropped like any unhandled tag.  Byzantine peers cannot fake
        one (every host send path stamps its own pid as src).
        """
        self.host(pid)  # validate the pid
        if not (at > self.now) or at == _INF:
            raise SimulationError(
                f"recovery time {at!r} must be finite and after now={self.now!r}"
            )
        self.queue.push(at, pid, 0, (RECOVER_TAG,))

    def _apply_recovery(self, host: ProcessHost) -> None:
        """Perform the actual recovery of a crashed host (wake delivery or
        immediate :meth:`recover`): purge stale in-flight deliveries, flip
        the host live (epoch bump), run the behaviour's ``on_recover`` hook
        (crash-recovery behaviours re-arm their next crash budget here),
        tell the monitor, and nudge waiting predicates."""
        self.queue.purge(host.pid)
        host.recover()
        behavior = host.behavior
        if behavior is not None:
            hook = getattr(behavior, "on_recover", None)
            if hook is not None:
                hook(host)
        monitor = self.monitor
        if monitor is not None:
            monitor.on_recovery(host.pid, self.now)
        self.notify_state_change()

    # -- transport -----------------------------------------------------------
    def transmit(self, src: int, dst: int, payload: tuple, layer: str) -> None:
        """Accept a message onto the (simulated) wire: buffered while a
        step is open (``StepWindow._buffer``), else scheduled now.  Trace
        accounting stays per logical message."""
        if dst not in self.hosts:
            raise SimulationError(f"send to unknown process {dst}")
        self.trace.record_send(layer)
        if self._buffering:
            self._buffer(src, dst, payload)
        else:
            self._emit(src, dst, payload)

    def transmit_all(self, src: int, payload: tuple, layer: str) -> None:
        """The honest-uncrashed ``send_all`` fast path: one copy of
        ``payload`` for every process, one trace update, and one fan-out
        record through the step window (``StepWindow._buffer_all``)."""
        self.trace.record_send_many(layer, self.config.n)
        if self._buffering:
            self._buffer_all(src, payload)
        else:
            self._emit_all(src, payload)

    def _checked_delay(self, src: int, dst: int, payload: object) -> float:
        delay = self.scheduler.delay(src, dst, payload, self.now)
        if not (delay > 0.0) or delay == _INF:
            raise SimulationError(
                f"scheduler produced illegal delay {delay!r}; the model "
                "requires positive finite delays (eventual delivery)"
            )
        return delay

    def _emit(self, src: int, dst: int, payload: tuple) -> None:
        """The step window's sink: schedule one event (plain message or
        envelope) and push it."""
        delay = self._fixed_delay
        if delay is None:
            delay = self._checked_delay(src, dst, payload)
        self.queue.push(self.now + delay, dst, src, payload)

    def _emit_all(self, src: int, payload: tuple) -> None:
        """The fan-out sink: one batch push under a fixed delay, else one
        :meth:`_emit` per pid ``1..n`` (delays drawn in that order)."""
        fixed = self._fixed_delay
        if fixed is None:
            super()._emit_all(src, payload)
        else:
            self.queue.push_fanout(self.now + fixed, src, payload, self.config.n)

    # -- event loop --------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the next delivery; False when the queue is empty.

        The per-event reference for :meth:`_flat_run`: the queue's own
        ``pop()``, routing through ``ProcessHost.deliver``, and one
        :meth:`~repro.sim.window.StepWindow.coalescing_step` around the
        delivery — the step a socket node runs — with no locals carried
        between events.  Drivers that interleave their own actions with
        deliveries (:meth:`run_steps`) use it;
        ``tests/test_dispatch_equiv.py`` holds the hot loop to it.
        """
        if not self.queue:
            return False
        time, _, dst, src, payload = self.queue.pop()
        self.now = time
        with self.coalescing_step():
            tap = self.delivery_tap
            if tap is not None:
                tap(src, dst, payload)
            self.hosts[dst].deliver(src, payload)
        self.events_dispatched += 1
        return True

    def run_to_quiescence(self, max_events: int = DEFAULT_MAX_EVENTS) -> int:
        """Run until no messages remain in flight; returns events dispatched.

        In an asynchronous protocol every liveness property must hold by
        quiescence (there is no "later" once nothing is in flight), so this
        is the canonical way tests drive a run to completion.
        """
        return self._flat_run(None, max_events, False)

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_events: int = DEFAULT_MAX_EVENTS,
        on_change: bool = False,
    ) -> int:
        """Run until ``predicate()`` holds; DeadlockError if we quiesce first.

        With ``on_change=True`` the predicate is re-evaluated only when
        some module reported a state change via
        :meth:`notify_state_change` (plus once at queue drain as a safety
        net) — use it for predicates over protocol-observable state.  The
        default re-evaluates after every event, which is always safe.
        """
        self.predicate_evals += 1
        if predicate():
            return 0
        return self._flat_run(predicate, max_events, on_change)

    def run_steps(self, count: int) -> int:
        """Dispatch at most ``count`` events; returns how many ran."""
        dispatched = 0
        while dispatched < count and self.step():
            dispatched += 1
        return dispatched

    # -- the hot loop ----------------------------------------------------------
    def _flat_run(self, predicate, max_events: int, on_change: bool) -> int:
        """The flat-dispatch hot loop.

        Everything the per-event path touches is bound to locals, and the
        dispatch body is inlined rather than a helper, because a helper
        would cost a Python call per event — the exact overhead this loop
        removes.
        """
        queue = self.queue
        tables = self._tables
        hosts_seq = self._hosts_seq
        check = predicate is not None
        # Coalescing buffers sends for the whole loop (driver code cannot
        # run between events) and flushes after every dispatch, which is
        # observably identical to per-step buffering.  The session-vector
        # window opens the same way.
        coalescing = self.coalesce
        if coalescing:
            self._buffering = True
        svec = self.svec
        if svec:
            self.svec_buffering = True
        # The caller evaluated the predicate before entering, so only a
        # version moved *after* this point warrants a re-evaluation.
        last_version = self._state_version
        # Snapshot of the delivery tap: adaptive adversaries install theirs
        # before the run; a tap that loses interest mid-run just goes inert
        # rather than uninstalling.
        tap = self.delivery_tap
        dispatched = 0
        # The calendar-vs-heap fork is one branch per event on how to pop;
        # the dispatch body after it is shared.  The calendar branch reaches
        # into :class:`BucketQueue` internals; the queue's own ``pop()``
        # stays the reference semantics (``step()`` uses it).
        calendar = type(queue) is BucketQueue
        if calendar:
            times = queue._times
            buckets = queue._buckets
            bucket = None
        else:
            heap = queue._heap
        heappop = heapq.heappop
        # The loop allocates heavily but almost entirely acyclically —
        # tuples and short-lived lists that refcounting frees the moment
        # the handler returns — while the long-lived session tables keep
        # tripping generational collections that find nothing to free.
        # Pausing the cyclic collector for the loop cuts roughly a third
        # off large runs; anything cyclic is swept on re-enable.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                if calendar:
                    if not bucket:
                        if bucket is not None:
                            # Strictly positive delays: nothing lands in the
                            # bucket being drained, so it empties exactly
                            # once (or a purge emptied it).
                            del buckets[time]
                            heappop(times)
                        if not times:
                            break
                        time = times[0]
                        bucket = buckets[time]
                        self.now = time
                        continue
                    _, _, dst, src, payload = bucket.popleft()
                    queue._len -= 1
                else:
                    if not heap:
                        break
                    time, _, dst, src, payload = heappop(heap)
                    self.now = time
                dispatched += 1
                if dispatched > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely livelock"
                    )
                if tap is not None:
                    tap(src, dst, payload)
                # ``ProcessHost.deliver``, inlined.
                host = hosts_seq[dst]
                if not host.crashed and isinstance(payload, tuple) and payload:
                    try:
                        handler = tables[dst].get(payload[0])
                    except TypeError:
                        handler = None  # unhashable tag
                    if handler is not None:
                        handler(src, payload)
                elif host.crashed and src == 0:
                    # Recovery wakes are the one thing a crashed host still
                    # reacts to.
                    if (
                        isinstance(payload, tuple)
                        and payload
                        and payload[0] == RECOVER_TAG
                    ):
                        self._apply_recovery(host)
                if svec and self._svec_pending:
                    self._flush_svec()
                if coalescing and (self._outbox or self._fan):
                    self._flush_outbox()
                if check:
                    version = self._state_version
                    if not on_change or version != last_version:
                        last_version = version
                        self.predicate_evals += 1
                        if predicate():
                            if calendar and not bucket:
                                # Keep the queue canonical when the wait
                                # resolves on a bucket's last event (pop()
                                # also tolerates this).
                                del buckets[time]
                                heappop(times)
                            return dispatched
        finally:
            if gc_was_enabled:
                gc.enable()
            if coalescing:
                self._buffering = False
            if svec:
                self.svec_buffering = False
            self.events_dispatched += dispatched
        if check:
            # Drained.  Re-check once before declaring deadlock: a predicate
            # over state whose module forgot to notify still resolves here.
            self.predicate_evals += 1
            if predicate():
                return dispatched
            raise DeadlockError(
                "event queue drained before the awaited condition became true"
            )
        return dispatched
