"""The outbound step window: one aggregation path for every runtime.

A *step* is the unit in which protocol handlers run to completion: one
dispatched event in the simulator, one inbox delivery on a socket node,
or one driver-side :meth:`StepWindow.coalescing_step` block.  While a
step is open

* every transmitted logical message is only *buffered* per
  ``(src, dst)``, and
* session-vector muxes (:mod:`repro.core.vectormux`, the agreement vote
  mux) buffer per-slot messages and register through :meth:`svec_defer`;

when it closes, the muxes flush first — their vectors are ordinary sends,
so they land in the same buffers — and then each ``(src, dst)`` buffer
leaves through the runtime's :meth:`_emit` sink as one envelope
``("env", (payload, ...))`` in send order (a lone message travels plain).
The sink is the only transport-specific part: the simulator schedules an
event, the socket runtime writes one DATA frame.

A step's ``send_all`` fan-outs stay whole while they can: the *fan*
record holds the payloads of consecutive ``send_all`` calls from one
``src`` made while the per-pair outbox is empty, and a fan-only step leaves
by one :meth:`_emit_all` of one wire payload all destinations share.  Any
other send first *spills* the fan into the outbox as ``n`` per-pair
buffers would have held it: pairs ``(src, 1) … (src, n)``, each with the
fan's payloads in send order.  The fan and the outbox are never both
non-empty.

Packing is the transport, not an option, and its one off-switch is the
adversary's: a scheduler that advertises ``splits_envelopes`` means the
window never buffers (every send is scheduled and pushed the moment it is
made, exactly as before envelopes existed), one that advertises
``splits_slots`` means the muxes never pack.  :attr:`StepWindow.coalesce`
and :attr:`StepWindow.svec` are those two facts, read once at construction.

:class:`StepWindow` is a base class rather than a member object so the
flags and counters protocol modules consume (``runtime.svec``,
``runtime.svec_buffering``, ``runtime.svec_packed += ...``) stay plain
instance attributes of the runtime — no forwarding, nothing to mirror.
It also carries the receive-side ingestion counters, which are part of
the same runtime surface (see :class:`~repro.sim.module.RuntimeABC`).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.sim.process import ENVELOPE_TAG
from repro.sim.tracing import Trace


class StepWindow:
    """Per-step outbound buffers, their flush, and the aggregation counters.

    Subclasses implement :meth:`_emit` (and may batch :meth:`_emit_all`)
    and decide *when* steps open and close; ``Runtime``'s hot loop inlines
    the open/close flag writes, everything else goes through here.
    """

    def __init__(self, scheduler=None):
        #: The run's accounting (logical messages per layer, shun records);
        #: counting is not an option on either runtime.
        self.trace = Trace()
        #: Wire-level coalescing: a step's sends are buffered and leave as
        #: envelopes — unless the scheduler splits envelopes, in which case
        #: nothing is ever buffered.  A runtime without a scheduler (the
        #: socket transport) packs.
        self.coalesce = not getattr(scheduler, "splits_envelopes", False)
        #: (src, dst) -> [payload, ...] buffered during the current step.
        self._outbox: dict[tuple[int, int], list] = {}
        #: The step's fan-out payloads from ``_fan_src`` (module docstring).
        self._fan: list = []
        self._fan_src = 0
        self._buffering = False
        #: Envelopes emitted / logical messages that rode inside them.
        self.envelopes_pushed = 0
        self.payloads_coalesced = 0
        #: Session-vector aggregation: the VSS layer packs the coin's
        #: per-slot session messages into one ``("svec", ...)`` logical
        #: message per (step, dealer-group, kind) — unless the scheduler
        #: splits slots.
        self.svec = not getattr(scheduler, "splits_slots", False)
        #: True while a step is open and muxes may buffer; outside a
        #: step, per-slot sends travel plain.
        self.svec_buffering = False
        #: Muxes holding buffered slot messages for the current step.
        self._svec_pending: list = []
        #: Slot-vector messages emitted / per-slot messages folded into them.
        self.svec_packed = 0
        self.svec_slots = 0
        #: Received vectors are consumed whole (``VSSManager.ingest_vector``:
        #: one group-level DMM verdict, each slot's instance found in the
        #: group's lane).  Vectors consumed / slots resolved by a group-level
        #: verdict / slots that fell back to per-slot verdicts.
        self.svec_batch_ingested = 0
        self.dmm_verdicts_batched = 0
        self.dmm_verdict_fallbacks = 0
        #: DMM verdict computations, batched or not.
        self.dmm_verdict_calls = 0

    # -- the sink ------------------------------------------------------------
    def _emit(self, src: int, dst: int, payload: tuple) -> None:
        """Put one wire payload (plain message or envelope) on the
        transport, now."""
        raise NotImplementedError

    def _emit_all(self, src: int, payload: tuple) -> None:
        """Put one wire payload on the transport to every pid ``1..n``."""
        emit = self._emit
        for dst in range(1, self.config.n + 1):
            emit(src, dst, payload)

    # -- buffering -----------------------------------------------------------
    def _buffer(self, src: int, dst: int, payload: tuple) -> None:
        """Hold one logical message for the open step's flush."""
        fan = self._fan
        if fan:  # spill it first (see the module docstring)
            for pid in range(1, self.config.n + 1):
                self._outbox[(self._fan_src, pid)] = fan[:]
            fan.clear()
        pending = self._outbox.get((src, dst))
        if pending is None:
            self._outbox[(src, dst)] = [payload]
        else:
            pending.append(payload)

    def _buffer_all(self, src: int, payload: tuple) -> None:
        """Hold one message to every pid: on the fan, else per pair."""
        fan = self._fan
        if not self._outbox and (not fan or self._fan_src == src):
            self._fan_src = src
            fan.append(payload)
            return
        for dst in range(1, self.config.n + 1):
            self._buffer(src, dst, payload)

    def svec_defer(self, mux) -> None:
        """A mux buffered its first slot message of this step; flush it at
        end-of-step (called by :class:`~repro.core.vectormux.SessionVectorMux`)."""
        self._svec_pending.append(mux)

    # -- flushing ------------------------------------------------------------
    def _flush_svec(self) -> None:
        """Drain every dirty mux, in defer order (driver loops run pids
        ascending, so flushes stay source-major).  Mux flushes only send —
        they can buffer nothing new — and they run *before* the envelope
        flush, so svec messages still coalesce onto envelopes."""
        pending = self._svec_pending
        self._svec_pending = []
        for mux in pending:
            mux.flush()

    def _flush_outbox(self) -> None:
        """Emit the step's buffered messages.

        Each ``(src, dst)`` buffer with two or more logical messages
        becomes one envelope ``("env", (payload, ...))`` in send order;
        singletons travel plain (no framing overhead).  Buffers drain
        grouped by first-touched pair; within a pair, order is send order,
        so every destination still observes the uncoalesced per-party
        sequence.  A fan leaves the same way through one :meth:`_emit_all`.
        """
        fan = self._fan
        if fan:
            count = len(fan)
            wire = fan[0] if count == 1 else (ENVELOPE_TAG, tuple(fan))
            fan.clear()  # first, so a raising sink leaves nothing behind
            self._emit_all(self._fan_src, wire)
            if count > 1:
                self.envelopes_pushed += self.config.n
                self.payloads_coalesced += self.config.n * count
            return
        outbox = self._outbox
        emit = self._emit
        try:
            for (src, dst), payloads in outbox.items():
                if len(payloads) == 1:
                    emit(src, dst, payloads[0])
                    continue
                emit(src, dst, (ENVELOPE_TAG, tuple(payloads)))
                self.envelopes_pushed += 1
                self.payloads_coalesced += len(payloads)
        finally:
            # Clear even when the sink raised mid-flush: already-emitted
            # pairs must not be emitted again by a later flush if the
            # caller swallows the error.
            outbox.clear()

    @contextmanager
    def coalescing_step(self):
        """Treat the enclosed sends as one step.

        Socket nodes wrap every inbox delivery in it.  In the simulator it
        is for *driver-side* code (protocol ``start`` loops, coin joins),
        which runs outside the event loop: wrapping the whole loop buffers
        its sends like an ordinary step and flushes once at exit — this is
        what lets a batch's K round-1 votes leave as one vote vector.
        Callers must emit in source-major order (all of one sender's
        messages before the next sender's) if they rely on the
        bit-identical-sequence guarantee.  No-op under a scheduler that
        splits both envelopes and slots; steps do not nest, so do not use
        it inside a handler or while the simulator's event loop is running.
        """
        if not self.coalesce and not self.svec:
            yield
            return
        self._buffering = self.coalesce
        self.svec_buffering = self.svec
        try:
            yield
        finally:
            # Flush inside the finally: if the enclosed code raised
            # partway, the messages it sent before the error still go out
            # (exactly what the uncoalesced run would have pushed already)
            # instead of leaking into a later step's flush.  Slot-vectors
            # flush first, while wire buffering is still on, so they join
            # the step's envelopes like any other send.
            self.svec_buffering = False
            if self._svec_pending:
                self._flush_svec()
            self._buffering = False
            if self._outbox or self._fan:
                self._flush_outbox()
