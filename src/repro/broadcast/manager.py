"""Weak Reliable Broadcast and Reliable Broadcast (paper Appendix A).

WRB is Dolev's crusader agreement; RB is Bracha's echo broadcast layered on
top of it.  One :class:`BroadcastManager` per process multiplexes every
concurrent broadcast instance, keyed by a *broadcast id* whose first element
is the origin's pid (which is checked against the network source, so
byzantine processes cannot start broadcasts in someone else's name).

Wire messages (all on the ``rb`` accounting layer):

* ``("b1", bid, value)`` — WRB type 1, origin to all.
* ``("b2", bid, value)`` — WRB type 2 (crusader echo).
* ``("b3", bid, value)`` — RB type 3 (Bracha ready/echo).

Delivered values are routed to subscribers by *topic*: a broadcast value is
itself a tuple whose first element names the protocol that owns it (e.g.
``"vss"``, ``"coin"``, ``"aba"``).  A topic is either subscribed whole
(:meth:`BroadcastManager.subscribe`) or *per instance*
(:meth:`BroadcastManager.subscribe_slot`): instance-scoped values carry
their instance id in position 1 and are demuxed to the matching slot, so
many live instances of one protocol module share a topic without
string-prefixed topic names — and slots can be added or removed mid-run.

Echo tallies are *counter-based*: per bid the manager keeps each sender's
first value plus a value→count map, not a per-value set of senders.  The
tally of the bid's *leading* value — the first one echoed, which in an
honest run is the only one — sits in the instance itself and is bumped on
identity, so the n echoes of a large value cost two hashes of it, not 2n
(the map still holds the value, as a redirect, and stays the only judge of
equality).  The value map is bounded: extra (non-first) values stop being
admitted once ``2n + t`` values are tracked, and since each of the ``n`` senders
contributes at most one first value — admitted unconditionally, so honest
echoes are never capped — a byzantine value flood can never grow a bid
past ``3n + t`` tracked values.  Every execution that stays under the
admission threshold (in particular every one with only honest senders,
who send at most one echo per bid) accepts and delivers exactly as the
set-based bookkeeping did.

*Lifetime.*  A bid's tallies exist to reach delivery.  Once the bid
RB-delivers, later type-2 / type-3 echoes are dead work (acceptance and
delivery are one-shot, and the type-3 amplification flag was set on the way
to the ``n - t`` threshold), so its state is replaced by one of two shared
terminal markers.  The single duty that outlives delivery is the crusader
echo of a late type-1 message, and the marker remembers exactly whether
that echo was already sent — the wire stream is the one the full tallies
would have produced.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ProtocolError
from repro.sim.module import ProtocolModule
from repro.sim.process import InstanceSlots, ProcessHost

LAYER = "rb"

#: The three wire tags (module docstring), in protocol order.
RB_TAGS = ("b1", "b2", "b3")


def rb_message(payload: object) -> "tuple[object, object] | None":
    """``(bid, value)`` of a ``("b1" | "b2" | "b3", bid, value)`` message,
    else None: the one reader of the wire shape for code that watches the
    wire (schedulers, adversaries)."""
    if isinstance(payload, tuple) and len(payload) == 3 and payload[0] in RB_TAGS:
        return payload[1], payload[2]
    return None


#: topic -> "rb.<topic>" layer-name cache.  The honest topic set is tiny and
#: static per run, and building the f-string on every (hot-path) broadcast
#: send showed up in the engine profile.  Capped because the topic position
#: of a *received* bid is byzantine-controlled: a peer spamming fresh topic
#: strings must not grow process-wide memory (sweep workers are long-lived).
_LAYER_CACHE: dict[str, str] = {}
_LAYER_CACHE_MAX = 64


def _layer_for(bid: tuple) -> str:
    """Accounting layer for a broadcast: echo traffic is attributed to the
    protocol topic embedded in the bid (``(origin, topic, ...)``)."""
    if len(bid) > 1:
        topic = bid[1]
        if isinstance(topic, str):
            layer = _LAYER_CACHE.get(topic)
            if layer is None:
                if len(_LAYER_CACHE) >= _LAYER_CACHE_MAX:
                    return f"rb.{topic}"  # adversarial flood: don't intern
                layer = _LAYER_CACHE[topic] = f"rb.{topic}"
            return layer
    return LAYER

DeliverHandler = Callable[[int, tuple], None]

# Per-instance state indices (plain lists beat attribute lookups at the
# message rates the VSS stack generates).  The four flags come first so the
# terminal markers below need nothing else; each phase's tally is four
# consecutive fields, addressed from its ``_FIRSTn`` index.
_SENT2 = 0  # sent a type-2 message for this bid
_ACCEPTED = 1  # WRB accepted (type-2 threshold reached)
_SENT3 = 2  # sent a type-3 message
_DELIVERED = 3  # RB delivered
_EXTRA = 4  # None | set of (kind, sender, value): byzantine multi-value dedup
_FIRST2 = 5  # sender -> its first type-2 value
_COUNTS2 = 6  # value -> tally of distinct (sender, value) echoes, or _LEAD
_LEAD2 = 7  # the first type-2 value tallied for this bid (the leading value)
_N2 = 8  # ... and its tally
_FIRST3 = 9  # the same four fields for type 3
_COUNTS3 = 10
_LEAD3 = 11
_N3 = 12

_MISSING = object()

#: ``counts[value]`` of the leading value: its tally lives in the instance.
_LEAD = -1

# Terminal states of a delivered bid, shared by every bid: accepted,
# amplified, delivered, no tallies.  Immutable, so a stray write raises.
_DELIVERED_SENT2 = (True, True, True, True)
_DELIVERED_UNSENT2 = (False, True, True, True)


class BroadcastManager(ProtocolModule):
    """All WRB/RB instances of one process.

    Exposes :meth:`broadcast` (RB), :meth:`broadcast_weak` (WRB only, used
    directly by nothing in the paper's stack but part of the public toolbox)
    and topic subscription for deliveries.
    """

    MODULE_KIND = "broadcast"

    def __init__(self, host: ProcessHost):
        super().__init__()
        self._instances: dict[object, list | tuple] = {}
        self._weak_only: set[object] = set()
        self._topic_handlers: dict[str, DeliverHandler] = {}
        self._topic_slots_tables: dict[str, InstanceSlots] = {}
        self._wrb_handlers: dict[str, DeliverHandler] = {}
        self.attach(host)

    def _wire(self, host: ProcessHost) -> None:
        self._runtime = host.runtime
        self.n = host.runtime.config.n
        self.t = host.runtime.config.t
        #: Admission threshold for *extra* (non-first) values per bid;
        #: first values always pass, so the hard per-bid bound is
        #: ``_value_cap + n``.  See module docstring.
        self._value_cap = 2 * self.n + self.t
        self.register("b1", self._on_b1)
        self.register("b2", self._on_b2)
        self.register("b3", self._on_b3)

    # -- public API -----------------------------------------------------------
    def subscribe(self, topic: str, handler: DeliverHandler) -> None:
        """Receive RB deliveries whose value starts with ``topic``."""
        if topic in self._topic_handlers:
            raise ProtocolError(f"topic {topic!r} already subscribed")
        self._topic_handlers[topic] = handler

    def unsubscribe(self, topic: str) -> None:
        """Release a whole topic (or a topic's entire slot table)."""
        if topic not in self._topic_handlers:
            raise ProtocolError(f"topic {topic!r} is not subscribed")
        del self._topic_handlers[topic]
        self._topic_slots_tables.pop(topic, None)

    def subscribe_slot(
        self, topic: str, instance_id: object, handler: DeliverHandler
    ) -> None:
        """Receive RB deliveries ``(topic, instance_id, ...)`` for one live
        instance.  Slots may be added and removed while the run is going."""
        slots = self._topic_slots_tables.get(topic)
        if slots is None:
            if topic in self._topic_handlers:
                raise ProtocolError(
                    f"topic {topic!r} already subscribed whole; it cannot "
                    "also be instance-demuxed"
                )
            slots = InstanceSlots(topic)
            self._topic_slots_tables[topic] = slots
            self._topic_handlers[topic] = slots.dispatch
        slots.add(instance_id, handler)

    def unsubscribe_slot(self, topic: str, instance_id: object) -> None:
        slots = self._topic_slots_tables.get(topic)
        if slots is None:
            raise ProtocolError(f"topic {topic!r} has no instance slots")
        slots.remove(instance_id)
        if not slots.slots:
            # An emptied table releases its claim (a later
            # subscribe/subscribe_slot re-creates it).
            del self._topic_slots_tables[topic]
            del self._topic_handlers[topic]

    def topic_slots(self, topic: str) -> dict[object, DeliverHandler]:
        """Live instance slots under ``topic``: the table itself, not a copy
        (read only).  An emptied table is replaced, never refilled."""
        slots = self._topic_slots_tables.get(topic)
        return slots.slots if slots is not None else {}

    def subscribe_weak(self, topic: str, handler: DeliverHandler) -> None:
        """Receive WRB accepts for weak-only broadcasts on ``topic``."""
        if topic in self._wrb_handlers:
            raise ProtocolError(f"weak topic {topic!r} already subscribed")
        self._wrb_handlers[topic] = handler

    def delivered(self, bid: object) -> bool:
        """Whether ``bid`` has RB-delivered at this process."""
        inst = self._instances.get(bid)
        return inst is not None and inst[_DELIVERED]

    def broadcast(self, bid: tuple, value: tuple) -> None:
        """Reliably broadcast ``value`` under id ``bid``.

        ``bid[0]`` must be this process (origin authentication).
        """
        self._check_bid(bid)
        self.host.send_all(("b1", bid, value), _layer_for(bid))

    def broadcast_weak(self, bid: tuple, value: tuple) -> None:
        """Weak-reliable-broadcast only (no Bracha echo amplification)."""
        self._check_bid(bid)
        self._weak_only.add(bid)
        self.host.send_all(("b1", bid, value), _layer_for(bid))

    def _check_bid(self, bid: tuple) -> None:
        if not isinstance(bid, tuple) or not bid or bid[0] != self.host.pid:
            raise ProtocolError(
                f"broadcast id must be a tuple starting with the origin pid "
                f"{self.host.pid}, got {bid!r}"
            )

    # -- instance state ------------------------------------------------------------
    def _instance(self, bid: object) -> list:
        inst = self._instances.get(bid)
        if inst is None:
            inst = [False, False, False, False, None, {}, {}, _MISSING, 0, {}, {}, _MISSING, 0]
            self._instances[bid] = inst
        return inst

    def _tally(self, inst: list, first_idx: int, src: int, value: object) -> int:
        """Count one ``(src, value)`` echo whose value is not (by identity)
        the leading one; returns the new tally for ``value``, or 0 if the
        echo was a duplicate or over the value cap.

        The value map decides what "the same value" means, with one hash
        per call; only the leading value's *count* lives outside it, so an
        equal-but-not-identical echo (on the socket path: one decoded after
        the node's value memo lost or replaced the entry) bumps that count
        without a second hash.  Raises ``TypeError`` on
        unhashable byzantine garbage (callers drop the message), before any
        state is touched.
        """
        first = inst[first_idx]
        counts = inst[first_idx + 1]
        prev = first.get(src, _MISSING)
        if prev is not _MISSING and prev == value:
            return 0  # duplicate echo
        count = counts.get(value, 0)  # TypeError -> caller drops
        leading = count == _LEAD
        if leading:
            count = inst[first_idx + 3]
        if prev is _MISSING:
            # A sender's first value is always tallied — honest echoes are
            # all first values, so honest accept/deliver behaviour is exact.
            first[src] = value
            if not counts:
                # The bid's first echo of this type: its value leads.
                inst[first_idx + 2] = value
                counts[value] = _LEAD
                leading = True
        else:
            # Byzantine multi-value sender: tally each (src, value) pair at
            # most once, and never track more than _value_cap extra values.
            if count == 0 and len(counts) >= self._value_cap:
                return 0  # bounded per-bid value map (value-flood hardening)
            extra = inst[_EXTRA]
            if extra is None:
                extra = inst[_EXTRA] = set()
            key = (first_idx, src, value)
            if key in extra:
                return 0
            extra.add(key)
        count += 1
        if leading:
            inst[first_idx + 3] = count
        else:
            counts[value] = count
        return count

    # -- WRB ------------------------------------------------------------
    def _on_b1(self, src: int, payload: tuple) -> None:
        if len(payload) != 3:
            return
        _, bid, value = payload
        if not isinstance(bid, tuple) or not bid or bid[0] != src:
            return  # spoofed origin
        inst = self._instance(bid)
        if inst[_SENT2]:
            return  # send at most one type-2 per bid (crusader rule)
        if inst[_DELIVERED]:
            self._instances[bid] = _DELIVERED_SENT2
        else:
            inst[_SENT2] = True
        self.host.send_all(("b2", bid, value), _layer_for(bid))

    def _on_b2(self, src: int, payload: tuple) -> None:
        if len(payload) != 3:
            return
        _, bid, value = payload
        if not isinstance(bid, tuple) or not bid:
            return
        inst = self._instances.get(bid)
        if inst is None:
            inst = self._instance(bid)
        if inst[_ACCEPTED]:
            # Acceptance is one-shot per bid: nothing ever reads the b2
            # tally again, so late echoes are dead work — drop them.
            return
        first = inst[_FIRST2]
        if value is inst[_LEAD2] and src not in first:
            # Every honest echo is its sender's first value, and it *is*
            # the object the bid's first echo carried — in the simulator
            # by construction, over sockets because the node's value memo
            # decodes equal bytes to one object: bump the leading tally
            # without hashing the value.
            first[src] = value
            count = inst[_N2] = inst[_N2] + 1
        else:
            try:
                count = self._tally(inst, _FIRST2, src, value)
            except TypeError:
                return  # unhashable garbage from a byzantine sender
        if count and count >= self.n - self.t:
            inst[_ACCEPTED] = True
            self._on_wrb_accept(bid, value)

    def _on_wrb_accept(self, bid: tuple, value: tuple) -> None:
        if bid in self._weak_only or self._is_weak_bid(bid):
            origin = bid[0]
            self._runtime.notify_state_change()  # a WRB accept is observable
            self._route(self._wrb_handlers, origin, value)
            return
        inst = self._instance(bid)
        if not inst[_SENT3]:
            inst[_SENT3] = True
            self.host.send_all(("b3", bid, value), _layer_for(bid))

    @staticmethod
    def _is_weak_bid(bid: tuple) -> bool:
        """Weak-only broadcasts mark their bid with a leading "w" topic tag
        in position 1 so that *receivers* (who never called broadcast_weak)
        also treat them as weak."""
        return len(bid) > 1 and bid[1] == "weak"

    # -- RB -----------------------------------------------------------------
    def _on_b3(self, src: int, payload: tuple) -> None:
        if len(payload) != 3:
            return
        _, bid, value = payload
        if not isinstance(bid, tuple) or not bid:
            return
        inst = self._instances.get(bid)
        if inst is None:
            inst = self._instance(bid)
        if inst[_DELIVERED]:
            # Delivery is one-shot per bid, and the n-t ≥ t+1 threshold
            # means the echo-amplification flag was set on the way there:
            # post-delivery echoes are dead work — drop them.
            return
        first = inst[_FIRST3]
        if value is inst[_LEAD3] and src not in first:
            # Leading-value fast path — see _on_b2.
            first[src] = value
            count = inst[_N3] = inst[_N3] + 1
        else:
            try:
                count = self._tally(inst, _FIRST3, src, value)
            except TypeError:
                return
            if not count:
                return
        if not inst[_SENT3] and count >= self.t + 1:
            inst[_SENT3] = True
            self.host.send_all(("b3", bid, value), _layer_for(bid))
        if count >= self.n - self.t:
            self._instances[bid] = (
                _DELIVERED_SENT2 if inst[_SENT2] else _DELIVERED_UNSENT2
            )
            origin = bid[0]
            self._runtime.notify_state_change()  # an RB delivery is observable
            self._route(self._topic_handlers, origin, value)

    # -- delivery routing ------------------------------------------------------
    def _route(
        self, table: dict[str, DeliverHandler], origin: int, value: tuple
    ) -> None:
        if not isinstance(value, tuple) or not value:
            return
        handler = table.get(value[0])
        if handler is not None:
            handler(origin, value)
