"""Process hosts: reactive message routers.

Every protocol in the paper is a list of "upon receiving X do Y" rules, so a
process is modelled as a router of tagged-message handlers.  Protocol
modules (broadcast manager, VSS manager, agreement, ...) attach themselves
to a host and register for the tags they own.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.runtime import Runtime

Handler = Callable[[int, tuple], None]
OutboundFilter = Callable[[int, tuple], "tuple | None | list[tuple]"]

#: Reserved tag of coalesced *envelope* events (see
#: :meth:`~repro.sim.runtime.Runtime.transmit`): the payload is
#: ``("env", (sub_payload, ...))`` where every sub-payload is one complete
#: logical message in original send order.  The tag is claimed by every
#: host at construction, so protocol modules can never register it.  (The
#: session-vector transport reserves ``"svec"`` the same way, one layer
#: up: every ``VSSManager`` claims it at wire time — see
#: :mod:`repro.core.vectormux`.)
ENVELOPE_TAG = "env"


def envelope_subs(payload: object) -> "tuple | None":
    """The sub-payloads of an envelope, else None: the one reader of the
    shape :meth:`ProcessHost._deliver_envelope` unpacks.  It reads one
    level, as the receiver does: a nested envelope is a sub-payload."""
    if (
        type(payload) is tuple
        and len(payload) == 2
        and payload[0] == ENVELOPE_TAG
        and type(payload[1]) is tuple
    ):
        return payload[1]
    return None


#: Reserved tag of the runtime's *recovery wake* event.  A wake is the only
#: payload a crashed host reacts to, and only when it arrives with
#: ``src == 0`` — the runtime's own origin, which no host can use (every
#: host send path stamps ``src = self.pid >= 1``), so byzantine peers
#: cannot forge a resurrection.  See :meth:`~repro.sim.runtime.Runtime.recover`.
RECOVER_TAG = "recover"

#: Cap on live instances sharing one ``(host, tag)`` slot table.  Slots are
#: registered by *local* protocol code (never by network input), so the cap
#: is a misuse guard, not a byzantine defence: it keeps a driver that
#: forgets to close finished instances from growing a table without bound.
MAX_INSTANCE_SLOTS = 1024


class InstanceSlots:
    """Bounded instance demux behind one shared tag.

    Many live instances of one module class share a tag: the host's
    handler table routes the tag to :meth:`dispatch`, which routes on the
    instance id in payload position 1 (``(tag, instance_id, ...)``).
    Unknown or unhashable ids are dropped exactly like unknown tags
    (byzantine peers may send arbitrary ids).
    """

    __slots__ = ("tag", "slots", "limit")

    def __init__(self, tag: object, limit: int = MAX_INSTANCE_SLOTS):
        self.tag = tag
        self.slots: dict[object, Handler] = {}
        self.limit = limit

    def add(self, instance_id: object, handler: Handler) -> None:
        if instance_id in self.slots:
            raise SimulationError(
                f"instance {instance_id!r} already registered on slot table "
                f"{self.tag!r}"
            )
        if len(self.slots) >= self.limit:
            raise SimulationError(
                f"slot table {self.tag!r} is full ({self.limit} instances); "
                "close finished instances before registering more"
            )
        self.slots[instance_id] = handler

    def remove(self, instance_id: object) -> None:
        if instance_id not in self.slots:
            raise SimulationError(
                f"instance {instance_id!r} not registered on slot table "
                f"{self.tag!r}"
            )
        del self.slots[instance_id]

    def dispatch(self, src: int, payload: tuple) -> None:
        if len(payload) < 2:
            return
        try:
            handler = self.slots.get(payload[1])
        except TypeError:
            return  # unhashable instance id from a byzantine sender
        if handler is not None:
            handler(src, payload)


class ProcessHost:
    """One simulated process: id, handler table, outbound hook.

    The ``outbound_filter`` is the seam the adversary library uses for
    byzantine senders: it may rewrite, drop, or multiply any outgoing
    message.  Nonfaulty processes never install one.
    """

    __slots__ = (
        "runtime",
        "pid",
        "crashed",
        "crash_epoch",
        "outbound_filter",
        "behavior",
        "_handlers",
        "_slot_tables",
        "_modules",
    )

    def __init__(self, runtime: "Runtime", pid: int):
        self.runtime = runtime
        self.pid = pid
        self.crashed = False
        #: Incremented on every recovery; in-flight unpack loops (envelopes,
        #: slot-vectors) capture it on entry so a crash→recover cycle inside
        #: the loop still kills the remaining sub-payloads — they were
        #: addressed to the previous incarnation.
        self.crash_epoch = 0
        self.outbound_filter: OutboundFilter | None = None
        #: Byzantine behaviour object for corrupt processes; None = nonfaulty.
        self.behavior: object | None = None
        # The envelope tag is wired at birth so no module can claim it.
        self._handlers: dict[object, Handler] = {
            ENVELOPE_TAG: self._deliver_envelope
        }
        self._slot_tables: dict[object, InstanceSlots] = {}
        self._modules: dict[object, object] = {}

    def deviation(self, hook: str):
        """Return the behaviour hook ``hook`` if this process is corrupt and
        its behaviour implements it, else None.

        Protocol modules call this at every point where a byzantine process
        could deviate; nonfaulty processes always get None and run the
        honest code path.
        """
        if self.behavior is None:
            return None
        return getattr(self.behavior, hook, None)

    # -- module wiring ------------------------------------------------------
    def attach(self, name: object, module: object) -> None:
        if name in self._modules:
            raise SimulationError(f"module {name!r} already attached to {self.pid}")
        self._modules[name] = module

    def detach(self, name: object) -> None:
        if name not in self._modules:
            raise SimulationError(f"process {self.pid} has no module {name!r}")
        del self._modules[name]

    def module(self, name: object) -> object:
        try:
            return self._modules[name]
        except KeyError:
            raise SimulationError(f"process {self.pid} has no module {name!r}") from None

    def has_module(self, name: object) -> bool:
        return name in self._modules

    def register_handler(self, tag: object, handler: Handler) -> None:
        """Claim ``tag``; the next message carrying it reaches ``handler``
        (every router reads this table live, so mid-run is fine)."""
        if tag in self._handlers:
            raise SimulationError(f"handler for {tag!r} already registered on {self.pid}")
        self._handlers[tag] = handler

    def unregister_handler(self, tag: object) -> None:
        """Release a whole tag (and its slot table, if it had one)."""
        if tag not in self._handlers:
            raise SimulationError(f"no handler for {tag!r} on process {self.pid}")
        del self._handlers[tag]
        self._slot_tables.pop(tag, None)

    def register_instance_handler(
        self, tag: object, instance_id: object, handler: Handler
    ) -> None:
        """Register ``handler`` for payloads ``(tag, instance_id, ...)``.

        The first registration under ``tag`` creates the (bounded) slot
        table and claims the tag; later instances only mutate the table.
        """
        slots = self._slot_tables.get(tag)
        if slots is None:
            slots = InstanceSlots(tag)
            # Claims the tag through the ordinary registration path.
            self.register_handler(tag, slots.dispatch)
            self._slot_tables[tag] = slots
        slots.add(instance_id, handler)

    def unregister_instance_handler(self, tag: object, instance_id: object) -> None:
        """Release one instance slot (the shared tag itself stays claimed)."""
        slots = self._slot_tables.get(tag)
        if slots is None:
            raise SimulationError(
                f"process {self.pid} has no slot table for {tag!r}"
            )
        slots.remove(instance_id)

    def instance_slots(self, tag: object) -> dict[object, Handler]:
        """Live instance slots under ``tag`` (read-only view for tests)."""
        slots = self._slot_tables.get(tag)
        return dict(slots.slots) if slots is not None else {}

    # -- receiving -------------------------------------------------------------
    def deliver(self, src: int, payload: object) -> None:
        """Route one delivered message — the one routing rule.

        ``Runtime.step()`` and ``NetworkNode._pump`` call it, the hot loop
        inlines it, :meth:`_deliver_envelope` applies it per sub-payload;
        all read the same live handler table.  Unknown tags and malformed
        payloads (unhashable tags included) are dropped silently: byzantine
        peers may send arbitrary bytes and a nonfaulty process must survive
        them.  (Handler *bugs* still raise — only the lookup is lenient.)
        """
        if self.crashed:
            # A crashed host ignores everything except the runtime's own
            # recovery wake (src == 0 is unforgeable; see RECOVER_TAG).
            if (
                src == 0
                and isinstance(payload, tuple)
                and payload
                and payload[0] == RECOVER_TAG
            ):
                self.runtime._apply_recovery(self)
            return
        if not isinstance(payload, tuple) or not payload:
            return
        try:
            handler = self._handlers.get(payload[0])
        except TypeError:
            return  # unhashable tag from a byzantine sender
        if handler is not None:
            handler(src, payload)

    def _deliver_envelope(self, src: int, payload: tuple) -> None:
        """Unpack one coalesced envelope and deliver its sub-payloads.

        Sub-payloads route through the live handler table in buffer order,
        so the per-party sequence of *logical* messages is exactly what the
        uncoalesced run delivers.  Crash state is re-checked before every
        sub-payload: a host that crashes while processing sub-payload ``j``
        (e.g. its crash-behaviour budget ran out mid-reply) drops the rest
        of the envelope, just as it would drop the remaining events of the
        uncoalesced run.  Byzantine peers may forge envelopes; that grants
        no new power (each sub-payload still passes the same routing and
        per-handler validation as a plain send) and nesting is refused so a
        forged envelope cannot recurse.
        """
        subs = envelope_subs(payload)
        if subs is None:
            return  # forged envelope; honest runtimes always pack tuples
        lookup = self._handlers.get
        epoch = self.crash_epoch
        for sub in subs:
            if self.crashed or self.crash_epoch != epoch:
                # Crash mid-envelope: remaining sub-payloads die too.  The
                # epoch check extends this to crash→recover cycles inside
                # the loop — the recovered incarnation must not receive the
                # tail of an envelope addressed to its predecessor.
                return
            if not isinstance(sub, tuple) or not sub:
                continue
            tag = sub[0]
            if tag == ENVELOPE_TAG:
                continue  # no nested envelopes
            try:
                handler = lookup(tag)
            except TypeError:
                continue  # unhashable tag from a byzantine sender
            if handler is not None:
                handler(src, sub)

    # -- sending ------------------------------------------------------------------
    def send(self, dst: int, payload: tuple, layer: str) -> None:
        """Send over the private channel to ``dst`` (may be self)."""
        if self.crashed:
            return
        if self.outbound_filter is None:
            self.runtime.transmit(self.pid, dst, payload, layer)
            return
        produced = self.outbound_filter(dst, payload)
        if produced is None:
            return
        if isinstance(produced, list):
            for item in produced:
                self.runtime.transmit(self.pid, dst, item, layer)
        else:
            self.runtime.transmit(self.pid, dst, produced, layer)

    def send_all(self, payload: tuple, layer: str) -> None:
        """Plain point-to-point send to every process, self included.

        Honest uncrashed processes take the batched fast path: crash state
        and the (absent) outbound filter are checked once here instead of
        once per destination, and the runtime pushes the whole fan-out in
        one call — observably ``n`` individual :meth:`send` calls in
        destination order (``tests/test_sim.py`` compares the two).
        Byzantine senders fall back to exactly those, so their filter sees
        every message.
        """
        if self.crashed:
            return
        runtime = self.runtime
        if self.outbound_filter is None:
            runtime.transmit_all(self.pid, payload, layer)
            return
        for dst in runtime.config.pids:
            self.send(dst, payload, layer)

    def crash(self) -> None:
        """Stop participating entirely (fail-stop)."""
        self.crashed = True

    def recover(self) -> None:
        """Rejoin after a crash (called by the runtime's recovery path —
        use :meth:`~repro.sim.runtime.Runtime.recover`, which also purges
        stale in-flight deliveries).  Handler tables, slot tables and
        attached modules survive the crash untouched, so the recovered
        incarnation resumes exactly where protocol state left off; the
        epoch bump fences out unpack loops begun pre-crash."""
        if not self.crashed:
            raise SimulationError(f"process {self.pid} is not crashed")
        self.crashed = False
        self.crash_epoch += 1
