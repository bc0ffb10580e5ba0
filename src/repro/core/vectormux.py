"""Session-vector transport: one protocol message per MW-SVSS *batch*.

The common coin runs ``n²`` concurrent SVSS sessions — one per
``(dealer, slot)`` — whose per-slot state machines march through the same
step schedule, so each party ends every dispatch step holding ``n``
structurally identical messages for the same counterpart that differ only
in the slot.  The :class:`SessionVectorMux` is the *semantic* aggregation
layer that folds them.  A **vector** is the step's slots of one
``(dealer-group, kind)``, where ``group`` is the session id with the slot
stripped out (see :func:`repro.core.sessions.svec_split`).

Wire shapes
-----------
* **Private sends** — one logical message per ``(step, dst, group, kind)``::

      ("svec", kind, group, slots, bodies)

  ``slots`` and ``bodies`` are equal-length tuples (the vector's columns:
  slot ``slots[i]`` carries ``bodies[i]``), and a vector of one slot
  travels as the plain ``("v", sid, kind, body)``.
* **Reliable broadcasts** — one RB per ``(step, origin)``: every vector the
  step broadcasts is an item of one *fold*, in first-touched order, under
  the bid ``(origin, "svec", seq)``::

      ("svec", ((kind, group, slots, bodies), ...))

  A step that broadcasts a single slot message sends the plain
  ``("vss", sid, kind, body)`` under its canonical bid; every other step
  folds (a one-vector step is a one-item fold).  This is where the ~n⁴ →
  ~n³ *RB instance* drop comes from: the step's vectors already rode the
  same envelopes hop for hop, and now share one echo cascade, one tally
  and one instance lookup per hop instead of one each.
* **The fold is bounded**: at most :data:`FOLD_MAX_VECTORS` vectors
  (``≤ 16·n`` slot entries) per bid; a larger step splits into consecutive
  bids, in order.  An RB value is atomic on the socket path — it must fit
  one DATA frame, envelopes split *between* payloads, never inside one
  (``docs/NETWORK.md``) — so an unbounded fold could outgrow a small
  ``max_frame_body`` and never be delivered.

Tag reservation
---------------
``"svec"`` is a reserved wire tag, alongside the coalescing transport's
``"env"`` (:data:`repro.sim.process.ENVELOPE_TAG`):

* as a **host tag**, ``("svec", kind, group, slots, bodies)`` private messages
  are claimed by every :class:`~repro.core.manager.VSSManager` at wire
  time, so no other module can register it;
* as a **broadcast topic**, ``("svec", items)`` RB folds are claimed by the
  :class:`~repro.core.coin.CommonCoinModule` through its
  ``ProtocolModule._wire`` hook (slot families only exist for coin
  sessions), under bids ``(origin, "svec", seq)``.

Per-session semantics
---------------------
Packing is pure framing — the per-session state machines underneath are
untouched:

* unpacking (``VSSManager.ingest_vector``) is, slot for slot, the
  ordinary ``VSSManager._ingest`` path a plain per-session message takes:
  each slot gets its own DMM verdict (shared across the vector only while
  it cannot differ), its own validation, and its own session instance; a
  non-int, delayed or discarded slot or a malformed body degrades *that
  session only*, never its siblings (bad columns drop the whole vector);
* a receiver that crashes while processing slot ``k`` (e.g. its crash
  budget ran out mid-reply) drops the remaining slots of the vector,
  exactly as it would drop the remaining per-session events;
* corrupt senders never pack: a host with a byzantine behaviour or an
  outbound filter emits plain per-session messages, so mutators and
  crash-after-N budgets keep acting on logical *slot* messages (a forged
  ``("svec", ...)`` payload is unpacked with full per-slot validation);
* but a fold's bid is not unique per ``(origin, sid, kind)`` as the
  canonical bid is: RB agrees per bid and the ``L`` / ``M`` / ``G`` / ``rv``
  handlers keep the first delivery, so two folds from one byzantine origin
  can leave two honest processes holding different ``L̂`` with nobody
  shunned (``docs/ADVERSARY.md``; ROADMAP 15(b)/(c) must judge it);
* a scheduler may advertise ``splits_slots``
  (:class:`repro.adversary.schedulers.SlotSplittingScheduler`) and no mux
  ever packs — the run is the per-session wire stream bit for bit, with
  exact per-session adversarial power.

Under fixed-delay schedulers the aggregation is output-pure: coin bits and
every per-session justifier (attach sets, accepted sets, eval sets,
party values) are bit-identical to the slot-split run
(``tests/test_svec.py`` asserts this per seed); only the logical
message count shrinks (``Runtime.svec_packed`` /
``Runtime.svec_slots`` size the effect).  Vectors may regroup sibling
sessions within one simultaneity bucket — the same framing-not-reordering
latitude the envelope coalescer documents — while every
``(src, dst, session)`` stream keeps its exact per-session sequence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.sessions import svec_group_wellformed, svec_sid, svec_slot, svec_split

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.manager import VSSManager

#: Reserved wire tag (host tag of private slot-vectors, broadcast topic of
#: RB slot-vectors).  See the module docstring.
SVEC_TAG = "svec"

#: Most vectors one RB fold carries (see "Wire shapes"); a constant, not a
#: knob: 16 keeps an n=4 fold inside a 4 KiB frame and costs 5 % more RBs
#: than an unbounded fold at n=7.
FOLD_MAX_VECTORS = 16


class Lane(dict):
    """One dealer group of a slot family, the record its live member
    instances share: ``group``, the one tuple every vector of theirs
    carries, and — as a dict — slot → live instance.  Each member holds its
    lane (``inst.lane``) from its first vector or first offer on;
    ``VSSManager._lanes`` holds one lane per group while a member lives."""

    __slots__ = ("group",)

    def __init__(self, group: tuple):
        super().__init__()
        self.group = group


def rb_kinds(value: object):
    """The message kinds an RB value of the VSS layer carries: one for a
    session's ``("vss", sid, kind, body)``, the head of every non-empty
    tuple item of a fold ``("svec", items)``, none for any other value."""
    if type(value) is not tuple or not value:
        return ()
    if value[0] == "vss" and len(value) == 4:
        return (value[2],)
    if value[0] == SVEC_TAG and len(value) == 2 and type(value[1]) is tuple:
        return (item[0] for item in value[1] if type(item) is tuple and item)
    return ()


class SessionVectorMux:
    """Per-process packer/unpacker of slot-vector messages.

    One mux per :class:`~repro.core.manager.VSSManager`.  The send side
    buffers the current dispatch step's per-slot messages keyed by
    ``(dst, group, kind)`` (``dst`` ``None`` for an RB; ``group`` read off
    the sending instance's :class:`Lane`), as a slot column and a body
    column, and flushes them at end-of-step — one
    ``("svec", ...)`` message per private key, one RB fold for the whole RB
    buffer; the receive side rebuilds per-slot session ids and re-enters
    the ordinary ingestion path.  Buffers are only filled while the
    runtime says a step is open (``Runtime.svec_buffering``), so driver
    code outside any step falls through to plain per-session sends.
    """

    __slots__ = ("manager", "families", "_pending", "_deferred", "_rb_seq")

    def __init__(self, manager: "VSSManager"):
        self.manager = manager
        #: Coin session ids whose per-slot sessions are vectorized.  Filled
        #: by ``CommonCoinModule.join`` and by unpacking (receiving a
        #: vector for a family proves the peer speaks svec for it, and the
        #: replies this delivery triggers should ride vectors too).
        self.families: set = set()
        #: (dst, group, kind) -> ([slot, ...], [body, ...]); dst None: RB
        self._pending: dict = {}
        self._deferred = False
        #: Numbers this origin's RB folds: every fold is a fresh bid.
        self._rb_seq = 0

    def register_family(self, csid: object) -> None:
        """Vectorize the per-slot sessions tagged ``(csid, slot)``."""
        self.families.add(csid)

    # -- send side ---------------------------------------------------------
    def offer_private(self, dst: int, inst, kind: str, body: object) -> bool:
        """Buffer one private send of instance ``inst``; False = caller
        sends plain."""
        return self._offer(dst, inst, kind, body)

    def offer_rb(self, inst, kind: str, body: object) -> bool:
        """Buffer one reliable broadcast of instance ``inst``; False =
        caller sends plain."""
        return self._offer(None, inst, kind, body)

    def _offer(self, dst: int | None, inst, kind: str, body: object) -> bool:
        manager = self.manager
        runtime = manager._runtime
        if not runtime.svec or not runtime.svec_buffering or not self.families:
            return False
        host = manager.host
        if host.behavior is not None or host.outbound_filter is not None:
            return False
        lane = inst.lane
        if lane is None:
            # Only a member joins: families only ever grow, so a member
            # stays one, while a miss could turn into a hit.
            split = svec_split(inst.sid, self.families)
            if split is None:
                return False
            lane = manager.join_lane(inst, *split)
        key = (dst, lane.group, kind)
        slot = svec_slot(inst.sid)
        pending = self._pending.get(key)
        if pending is None:
            self._pending[key] = ([slot], [body])
            if not self._deferred:
                self._deferred = True
                runtime.svec_defer(self)
        else:
            pending[0].append(slot)
            pending[1].append(body)
        return True

    def flush(self) -> None:
        """Emit the step's buffer: one private svec per private key (plain
        for a singleton), and the RB keys as one fold per
        :data:`FOLD_MAX_VECTORS` vectors (plain for a lone slot message).

        The buffer drains in first-touched order, so within one (src, dst,
        session) stream the kinds leave in exactly the per-session send
        order (slot 1's program order, which every slot shares).
        """
        manager = self.manager
        pid, send = manager.host.pid, manager.host.send
        broadcast = manager._broadcast.broadcast
        self._deferred = False
        pending, self._pending = self._pending, {}
        packed = count = 0
        items = []
        for (dst, group, kind), (slots, bodies) in pending.items():
            if dst is None:
                items.append((kind, group, tuple(slots), tuple(bodies)))
            elif len(slots) == 1:
                send(dst, ("v", svec_sid(group, slots[0]), kind, bodies[0]), "vss")
            else:
                send(dst, (SVEC_TAG, kind, group, tuple(slots), tuple(bodies)), "vss")
                packed += 1
                count += len(slots)
        if len(items) == 1 and len(items[0][2]) == 1:
            kind, group, (slot,), (body,) = items[0]
            sid = svec_sid(group, slot)
            broadcast((pid, "vss", sid, kind), ("vss", sid, kind, body))
        elif items:
            for start in range(0, len(items), FOLD_MAX_VECTORS):
                seq = self._rb_seq
                self._rb_seq = seq + 1
                fold = tuple(items[start : start + FOLD_MAX_VECTORS])
                broadcast((pid, SVEC_TAG, seq), (SVEC_TAG, fold))
            packed += len(items)
            count += sum(len(item[2]) for item in items)
        if packed:
            manager._runtime.svec_packed += packed
            manager._runtime.svec_slots += count

    # -- receive side ------------------------------------------------------
    def on_private(self, src: int, payload: tuple) -> None:
        """Host handler for private ``("svec", kind, group, slots, bodies)``."""
        if len(payload) == 5:
            _, kind, group, slots, bodies = payload
            self._unpack(src, kind, group, slots, bodies, self.manager.PRIVATE_KINDS)

    def on_rb(self, origin: int, value: tuple) -> None:
        """Broadcast-topic handler for RB ``("svec", items)`` folds.

        Each ``(kind, group, slots, bodies)`` item is one vector, validated
        and ingested on its own: a malformed item (wrong shape, private
        kind, bad group, a nested fold) drops alone.  A receiver that
        crashes — or crashes and recovers — inside one item drops the
        fold's tail, as it would have dropped the later deliveries of the
        step.
        """
        if len(value) != 2 or type(value[1]) is not tuple:
            return
        host = self.manager.host
        epoch = host.crash_epoch
        allowed = self.manager.RB_KINDS
        for item in value[1]:
            if host.crashed or host.crash_epoch != epoch:
                return
            if type(item) is tuple and len(item) == 4:
                self._unpack(origin, *item, allowed)

    def _unpack(
        self,
        src: int,
        kind: object,
        group: object,
        slots: object,
        bodies: object,
        allowed: frozenset,
    ) -> None:
        """Validate one vector's frame and hand it to the manager.

        Transport enforcement (``allowed``) applies to the whole vector —
        a private svec can only carry private kinds and vice versa, exactly
        like the per-session paths — and so do the columns: two tuples of
        one length, or nothing.  Everything else is validated per slot by
        ``ingest_vector``; a non-int slot or a malformed body drops alone.
        """
        if not isinstance(kind, str) or kind not in allowed:
            return
        if (
            type(slots) is not tuple
            or type(bodies) is not tuple
            or len(slots) != len(bodies)
            or not svec_group_wellformed(group)
        ):
            return
        try:
            hash(group)
        except TypeError:
            return  # unhashable ids from a byzantine sender
        manager = self.manager
        if manager._runtime.svec:
            # Receiving a vector for this family proves the conversation
            # speaks svec; the replies triggered below should pack too.
            self.families.add(group[1])
        manager.ingest_vector(src, group, kind, slots, bodies)
