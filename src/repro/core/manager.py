"""VSS manager: per-process session routing with DMM filtering.

The manager owns a process' DMM, session clock, and every MW-SVSS/SVSS
instance; it sits between the network/broadcast layer and the session logic
exactly where §3.1 places the DMM ("before a process sees a message in the
MW-SVSS protocol ... the message is filtered").  Messages the DMM delays
are parked and re-examined whenever expectations are cleared; messages from
convicted processes are discarded.

Completion and output events are routed to *watchers* keyed by the session
parent, which is how SVSS instances hear about their MW-SVSS children and
how the common coin hears about its SVSS sharings.

Finished sharings leave the tables.  A sharing (``sessions.sharing_of``: an
SVSS session with its 2n² MW-SVSS children, or a solo MW-SVSS session)
joins the session clock's tombstone, ``clock.retired``, when its root is
released, and nothing of it is created from then on.  Its live instances
and SVSS walks over ``Ĝ`` *pin* it; at the last let-go its instances leave
``mw`` / ``svss``.  A late message for a retired session takes its DMM
verdict and is dropped, but a late ``rv`` is checked by the DMM while the
session owes: conviction and debt clearing outlive the instance.  The
lookup caches (slot lanes, the mux's split memo) drop a session the moment
it is released.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import compress
from operator import mul

from repro.broadcast.manager import BroadcastManager
from repro.core.dmm import DELAY, DISCARD, DMM
from repro.core.mwsvss import MWSVSSInstance
from repro.core.sessions import (
    SVEC_MW,
    SessionClock,
    is_mw,
    is_svss,
    sharing_of,
    svec_sid,
    svec_split,
)
from repro.core.svss import SVSSInstance, children
from repro.core.vectormux import SVEC_TAG, SessionVectorMux
from repro.errors import ProtocolError
from repro.poly.fastpath import LagrangeBasis, lagrange_basis
from repro.sim.module import ProtocolModule
from repro.sim.process import ProcessHost

#: Message kinds carrying protocol *values* — the only ones the DMM
#: delay/discard applies to.  Membership bookkeeping (acks, L/M/G sets, the
#: dealer's OK) flows even from suspected processes: the §2 property proofs
#: only ever require a shunned process' value contributions to be ignored,
#: and filtering membership messages would let a faulty process that
#: withholds one reconstruct broadcast permanently stall every later
#: honest-dealer session it is admitted to.
VALUE_KINDS = frozenset({"shl", "mon", "mod", "cnf", "ms", "rv", "rows"})

#: Transport enforcement: kinds whose consistency guarantees come from
#: reliable broadcast must never be accepted over a private channel (a
#: faulty dealer could otherwise equivocate, e.g. send different G sets to
#: different processes), and vice versa.
PRIVATE_KINDS = frozenset({"shl", "mon", "mod", "cnf", "ms", "rows"})
RB_KINDS = frozenset({"ack", "L", "M", "ok", "rv", "G"})

#: Entries the pid-tuple, basis and ``L̂`` row memos keep; a miss past the
#: bound just recomputes (a row: the instance gets a fresh tuple).
PID_MEMO_MAX = 4096
_PID_TYPES = frozenset({int, bool})


def _ignore(*args: object) -> None:
    pass


class CallbackWatcher:
    """Adapter turning plain callables into a watcher object (for tests and
    the solo-session API); an event given no callable is ignored."""

    def __init__(
        self,
        on_mw_share_complete: Callable[[tuple], None] | None = None,
        on_mw_output: Callable[[tuple, object], None] | None = None,
        on_svss_share_complete: Callable[[tuple], None] | None = None,
        on_svss_output: Callable[[tuple, object], None] | None = None,
    ):
        self.on_mw_share_complete = on_mw_share_complete or _ignore
        self.on_mw_output = on_mw_output or _ignore
        self.on_svss_share_complete = on_svss_share_complete or _ignore
        self.on_svss_output = on_svss_output or _ignore


class VSSManager(ProtocolModule):
    """All VSS state of one process."""

    MODULE_KIND = "vss"

    #: Transport constraints, exposed for the session-vector mux (the whole
    #: vector must obey the same private/RB split as per-session messages).
    PRIVATE_KINDS = PRIVATE_KINDS
    RB_KINDS = RB_KINDS

    def __init__(self, host: ProcessHost, broadcast: BroadcastManager):
        super().__init__()
        self._broadcast = broadcast
        self.mw: dict[tuple, MWSVSSInstance] = {}
        self.svss: dict[tuple, SVSSInstance] = {}
        self._watchers: dict[object, object] = {}
        # Parked (delayed) messages indexed by (src, sid) — one verdict per
        # key re-examines a whole backlog entry — with a global sequence so
        # releases replay in park order.
        self._delayed: dict[tuple[int, tuple], list[tuple[int, str, object]]] = {}
        self._delayed_seq = 0
        # sharing -> its pins (see the module docstring)
        self._pins: dict[tuple, int] = {}
        # One lane per svec dealer-group: its sibling session instances by
        # slot, filled on first touch, so ingest_vector rebuilds no sid.
        self._lanes: dict[tuple, dict[int, object]] = {}
        # Manager-wide memos for pid sets (see pid_set / pids_of): the
        # same L/M/G tuples recur across sibling sessions and senders.
        self._pid_sets: dict[tuple, tuple] = {}  # body -> (frozenset, mask) | ()
        self._mask_pids: dict[int, tuple[int, ...]] = {}
        self._mask_bases: dict[int, LagrangeBasis] = {}
        self._rows: dict[tuple, tuple] = {}  # L̂ row -> its one shared copy
        self.attach(host)

    def _wire(self, host: ProcessHost) -> None:
        self._runtime = host.runtime
        self.config = host.runtime.config
        self.pid = host.pid
        self.n = self.config.n
        self.t = self.config.t
        self.field = self.config.field
        #: The ``L_hat`` row every MW-SVSS instance starts from (see row_with)
        self.empty_masks = (0,) * (self.n + 1)
        self.clock = SessionClock()
        self.dmm = DMM(self.pid, self.clock, self.field, on_shun=self._record_shun)
        self.register("v", self._on_private)
        # The "svec" host tag is reserved here unconditionally (like the
        # runtime's "env" tag) so no other module can ever claim it; the
        # matching broadcast topic is claimed by the common coin's _wire,
        # since slot-vector families only exist for coin sessions.
        self.mux = SessionVectorMux(self)
        self.register(SVEC_TAG, self.mux.on_private)
        self.subscribe(self._broadcast, "vss", self._on_rb)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def register_watcher(self, key: object, watcher: object) -> None:
        if key in self._watchers:
            raise ProtocolError(f"watcher for {key!r} already registered")
        self._watchers[key] = watcher

    def mw_share(self, sid: tuple, secret: int) -> None:
        self._live(self._ensure_mw(sid), sid).share(secret)

    def mw_moderate(self, sid: tuple, expected: int) -> None:
        if inst := self._ensure_mw(sid):
            inst.moderate(expected)

    def mw_begin_reconstruct(self, sid: tuple) -> None:
        if inst := self._ensure_mw(sid):
            inst.begin_reconstruct()

    def svss_share(self, sid: tuple, secret: int) -> None:
        self._live(self._ensure_svss(sid), sid).share(secret)

    def svss_begin_reconstruct(self, sid: tuple) -> None:
        if inst := self._ensure_svss(sid):
            inst.begin_reconstruct()

    @staticmethod
    def _live(inst, sid: tuple):
        if inst is None:  # retired: its share went out long ago
            raise ProtocolError(f"share already initiated for {sid}")
        return inst

    def svss_release(self, sid: tuple) -> None:
        """The caller knows nobody will reconstruct ``sid``: release it and
        its children (see ``SVSSInstance.release``)."""
        inst = self.svss.get(sid)
        if inst is not None:
            inst.release()

    def session_released(self, sid: tuple) -> None:
        """An MW-SVSS or SVSS instance entered its terminal state.

        The DMM forgets an MW-SVSS session whose reconstruct never
        completed (a completed one keeps its debts), the lookup caches drop
        the session — a released session sends nothing — a released root
        retires its sharing, and the instance unpins it.
        """
        if is_mw(sid):
            self.dmm.forget_session(sid)
        split = self.mux.forget(sid) or svec_split(sid, self.mux.families)
        if split is not None:
            group, slot = split
            lane = self._lanes.get(group)
            if lane is not None and lane.pop(slot, None) is not None and not lane:
                del self._lanes[group]
        sharing = sharing_of(sid)
        if sharing is sid:  # a root: an SVSS or a solo MW-SVSS session
            self.clock.retired.add(sid)
        self.pin(sharing, -1)

    def pin(self, sharing: tuple, by: int = 1) -> None:
        """Hold (``by=1``) or let go of (``-1``) ``sharing``'s instances:
        the last let-go takes them out of the tables."""
        left = self._pins.pop(sharing, 0) + by
        if left:
            self._pins[sharing] = left
            return
        sessions = [sharing]  # every instance released, no walk under way
        if is_svss(sharing):
            self.svss.pop(sharing, None)
            sessions += children(sharing, self.n)
        for sid in sessions:
            self.mw.pop(sid, None)
        self.dmm.retire(sessions)

    def parse_rv(self, body: object) -> tuple[int, tuple] | None:
        """An ``rv`` body ``((monitor, value), ...)`` as its monitor mask and its
        entries (``mwsvss.rv_value`` reads them), or ``None``: the body itself
        when its monitors are strictly ascending ints, as in every honest
        batch, else canonicalised once, the last entry for a monitor winning."""
        if not isinstance(body, tuple):
            return None
        n, is_element = self.n, self.field.is_element
        mask, ascending = 0, True  # ascending: no repeat, no descent, no bool
        for item in body:
            if (
                not isinstance(item, tuple)
                or len(item) != 2
                or not isinstance(item[0], int)
                or not (1 <= item[0] <= n)
                or not is_element(item[1])
            ):
                return None
            ascending &= type(item[0]) is int and not mask >> item[0]
            mask |= 1 << item[0]
        if not ascending:
            body = tuple(sorted({int(m): value for m, value in body}.items()))
        return mask, body

    def is_value_tuple(self, body: object, length: int) -> bool:
        """``body`` is a tuple of exactly ``length`` field elements."""
        return (
            isinstance(body, tuple)
            and len(body) == length
            and all(map(self.field.is_element, body))
        )

    def pid_set(self, body: object) -> tuple[frozenset[int], int] | None:
        """Validate a broadcast pid tuple (an L / M / G set): its members as
        ``(frozenset, bitmask)`` — bit p set iff pid p is in it — or ``None``
        for anything but distinct pids in ``1..n``.  Memoized: the answer
        depends on the body alone.  Element types are checked ahead of the
        memo, because ``(1.0, 2)`` equals and hashes like ``(1, 2)``."""
        if not isinstance(body, tuple) or not _PID_TYPES.issuperset(map(type, body)):
            return None
        pids = self._pid_sets.get(body)
        if pids is None:
            valid = len(set(body)) == len(body) and all(1 <= p <= self.n for p in body)
            pids = (frozenset(body), sum(1 << p for p in body)) if valid else ()
            if len(self._pid_sets) < PID_MEMO_MAX:
                self._pid_sets[body] = pids
        return pids or None

    def pids_of(self, mask: int) -> tuple[int, ...]:
        """The sorted pid tuple (wire form) of a bitmask, shared per mask."""
        pids = self._mask_pids.get(mask)
        if pids is None:
            pids = tuple(p for p in range(1, self.n + 1) if mask >> p & 1)
            if len(self._mask_pids) < PID_MEMO_MAX:
                self._mask_pids[mask] = pids
        return pids

    def row_with(self, row: tuple, j: int, mask: int) -> tuple:
        """``row`` with entry ``j`` set to ``mask``, interned: an MW-SVSS
        instance's ``L_hat`` is replaced, never mutated, so sibling sessions
        that received the same ``L̂`` sets hold one row object."""
        new = list(row)
        new[j] = mask
        new, rows = tuple(new), self._rows
        return rows.setdefault(new, new) if len(rows) < PID_MEMO_MAX else rows.get(new, new)

    def basis(self, mask: int) -> LagrangeBasis:
        """The Lagrange basis over the pids of a bitmask, ascending, shared
        per mask: the reconstruct fits run over a handful of pid sets, and
        an ``int`` key skips ``lagrange_basis``'s canonicalising and
        duplicate check."""
        basis = self._mask_bases.get(mask)
        if basis is None:
            basis = lagrange_basis(self.field, self.pids_of(mask))
            if len(self._mask_bases) < PID_MEMO_MAX:
                self._mask_bases[mask] = basis
        return basis

    def fit(
        self, pids: Sequence[int], ys: Sequence[int], points: Sequence[int]
    ) -> list[int] | None:
        """The values at ``points`` of the polynomial of degree ``<= t``
        through every ``(pids[i], ys[i])``, or ``None`` when there are fewer
        than ``t + 1`` points or they lie on no such polynomial — the ⊥ of
        R' step 4 and of R step 2.

        ``pids`` ascending, ``ys`` canonical.  The lowest ``t + 1`` points
        are the head (the verdict does not depend on which ``t + 1`` are);
        every other point is checked against the head basis' evaluation
        rows.  No coefficient vector is built.
        """
        t = self.t
        if len(pids) <= t:
            return None
        mask = 0
        for p in pids[: t + 1]:
            mask |= 1 << p
        head = ys[: t + 1]
        row = self.basis(mask).evaluation_row
        prime = self.field.prime
        for p, y in zip(pids[t + 1 :], ys[t + 1 :]):
            if sum(map(mul, head, row(p))) % prime != y:
                return None
        return [sum(map(mul, head, row(x))) % prime for x in points]

    def send_value(self, dst: int, sid: tuple, kind: str, body: object) -> None:
        """Send one private per-session message (the instances' send seam).

        On a session-vector runtime, per-slot coin sessions hand their
        message to the mux instead, which folds the step's sibling slots
        into one ``("svec", ...)`` send at end-of-step; everything else —
        and every corrupt sender — travels as a plain per-session message.
        """
        if not self.mux.offer_private(dst, sid, kind, body):
            self.host.send(dst, ("v", sid, kind, body), "vss")

    def rb_broadcast(self, sid: tuple, kind: str, body: object) -> None:
        """RB-broadcast a VSS message of this session (canonical bid).

        Slot-vector aggregation applies exactly as in :meth:`send_value`;
        folding ``n`` sibling broadcasts into one saves the whole O(n²)
        echo cascade each of them would have cost.
        """
        if self.mux.offer_rb(sid, kind, body):
            return
        bid = (self.pid, "vss", sid, kind)
        self._broadcast.broadcast(bid, ("vss", sid, kind, body))

    # ------------------------------------------------------------------
    # instance management
    # ------------------------------------------------------------------
    def _ensure_mw(self, sid: tuple) -> MWSVSSInstance | None:
        """The session's instance, created at first contact; ``None`` if
        there is none and its sharing retired (nobody will reconstruct it)."""
        inst = self.mw.get(sid)
        if inst is None:
            if not self._valid_mw_sid(sid):
                raise ProtocolError(f"invalid MW-SVSS session id {sid!r}")
            sharing = sharing_of(sid)
            if sharing in self.clock.retired:
                return None
            # The 2n² children of one SVSS session share its id object: a
            # sid rebuilt from a slot-vector carries a private copy.
            parent = self.svss.get(sid[1])
            if parent is not None and parent.sid is not sid[1]:
                sid = (sid[0], parent.sid, *sid[2:])
            inst = MWSVSSInstance(self, sid)
            self.mw[sid] = inst
            self.clock.note_begin(sid)
            self._pins[sharing] = self._pins.get(sharing, 0) + 1
        return inst

    def _ensure_svss(self, sid: tuple) -> SVSSInstance | None:
        """The session's instance, created at first contact, or ``None``."""
        inst = self.svss.get(sid)
        if inst is None:
            if not self._valid_svss_sid(sid):
                raise ProtocolError(f"invalid SVSS session id {sid!r}")
            if sid in self.clock.retired:
                return None
            inst = SVSSInstance(self, sid)
            self.svss[sid] = inst
            self.clock.note_begin(sid)
            self._pins[sid] = self._pins.get(sid, 0) + 1
        return inst

    def _valid_mw_sid(self, sid: tuple) -> bool:
        return (
            is_mw(sid)
            and isinstance(sid[2], int)
            and isinstance(sid[3], int)
            and 1 <= sid[2] <= self.n
            and 1 <= sid[3] <= self.n
            and sid[4] in ("md", "dm")
        )

    def _valid_svss_sid(self, sid: tuple) -> bool:
        return is_svss(sid) and isinstance(sid[2], int) and 1 <= sid[2] <= self.n

    # ------------------------------------------------------------------
    # message ingestion (network -> DMM -> session logic)
    # ------------------------------------------------------------------
    def _on_private(self, src: int, payload: tuple) -> None:
        if len(payload) != 4 or payload[2] not in PRIVATE_KINDS:
            return
        self._ingest(src, payload[1], payload[2], payload[3])

    def _on_rb(self, origin: int, value: tuple) -> None:
        if len(value) != 4 or value[2] not in RB_KINDS:
            return
        self._ingest(origin, value[1], value[2], value[3])

    def _ingest(self, src: int, sid: object, kind: object, body: object) -> None:
        if not isinstance(kind, str):
            return
        # Creating the instance stamps the session's local begin, which is
        # what makes →_i well-defined for the filter below; a retired
        # session has no stamp and reads as begun long ago.
        if self._valid_mw_sid(sid):
            self._ensure_mw(sid)
        elif self._valid_svss_sid(sid):
            self._ensure_svss(sid)
        else:
            return
        if kind in VALUE_KINDS:
            self._runtime.dmm_verdict_calls += 1
            verdict = self.dmm.filter_verdict(src, sid)
            if verdict == DISCARD:
                return
            if verdict == DELAY:
                self._park(src, sid, kind, body)
                return
        self._dispatch(src, sid, kind, body)
        if self._delayed or self.dmm.dirty:
            self._release_delayed()

    def ingest_vector(self, src: int, group: tuple, kind: str, slots, bodies) -> None:
        """Consume one slot-vector through the batched ingestion path.

        ``slots`` and ``bodies`` are the vector's columns, two tuples of
        one length (the mux checked that).  Equivalent, slot for slot, to
        feeding each ``slots[i]``, ``bodies[i]`` through :meth:`_ingest`,
        but the per-slot chain is hoisted to the vector level wherever the
        answer cannot differ across sibling sessions:

        * **session validation** — every slot's sid shares the group's
          dealer/moderator fields (the slot lands only inside the parent
          tag, which per-slot validation never inspects), so one probe
          covers the vector; a slot that is not an ``int`` drops alone;
        * **DMM verdict** — computed once per (src, group) via
          :meth:`DMM.filter_verdict_group` and reused while the DMM's
          ``version`` is unchanged; a dispatch that convicts/arms/disarms
          mid-vector bumps it and the remaining slots fall back to
          per-slot verdicts;
        * **instance lookup** — the group's lane (slot -> instance) gives
          O(1) slot access without rebuilding per-slot sid tuples.

        Each body goes to ``inst.handle`` as it came: the handler's guards
        are its one check and decode.

        Per-slot degradation is preserved: malformed entries, delayed and
        discarded slots, and crash/recovery mid-vector affect only the
        slots the per-slot path would have affected, in the same order.
        """
        mw_group = group[0] == SVEC_MW
        probe = svec_sid(group, 0)
        if not (self._valid_mw_sid(probe) if mw_group else self._valid_svss_sid(probe)):
            return
        keep = [type(slot) is int for slot in slots]
        if not all(keep):
            slots = tuple(compress(slots, keep))
            bodies = tuple(compress(bodies, keep))
        if not slots:
            return
        host = self.host
        runtime = self._runtime
        dmm = self.dmm
        delayed = self._delayed
        lane = self._lanes.get(group)
        if lane is None:
            lane = self._lanes[group] = {}
        ensure = self._ensure_mw if mw_group else self._ensure_svss
        checked = kind in VALUE_KINDS
        group_verdict: str | None = None
        version = -1
        if checked:
            runtime.dmm_verdict_calls += 1
            group_verdict = dmm.filter_verdict_group(src, group, slots)
            version = dmm.version
        batched = 0
        fallbacks = 0
        is_rv = mw_group and kind == "rv"
        epoch = host.crash_epoch
        for slot, body in zip(slots, bodies):
            if host.crashed or host.crash_epoch != epoch:
                break
            inst = lane.get(slot)
            if inst is None:
                inst = ensure(svec_sid(group, slot))  # None: retired
                if inst is not None and not inst.released:
                    lane[slot] = inst
            sid = svec_sid(group, slot) if inst is None else inst.sid
            if checked:
                if group_verdict is not None and dmm.version == version:
                    verdict = group_verdict
                    batched += 1
                else:
                    fallbacks += 1
                    verdict = dmm.filter_verdict(src, sid)
                if verdict == DISCARD:
                    continue
                if verdict == DELAY:
                    self._park(src, sid, kind, body)
                    continue
            if is_rv:
                self._on_rv(src, sid, inst, body)
            elif inst is not None:  # None: retired, the verdict is all it takes
                inst.handle(src, kind, body)
            if delayed or dmm.dirty:
                self._release_delayed()
        if not lane:
            # Every session of the group is finished (or was, mid-vector).
            self._lanes.pop(group, None)
        runtime.svec_batch_ingested += 1
        runtime.dmm_verdicts_batched += batched
        runtime.dmm_verdict_fallbacks += fallbacks
        runtime.dmm_verdict_calls += fallbacks

    def _dispatch(self, src: int, sid: tuple, kind: str, body: object) -> None:
        mw = is_mw(sid)
        inst = self._ensure_mw(sid) if mw else self._ensure_svss(sid)
        if mw and kind == "rv":
            self._on_rv(src, sid, inst, body)
        elif inst is not None:
            inst.handle(src, kind, body)

    def _on_rv(self, src: int, sid: tuple, inst: MWSVSSInstance | None, body: object) -> None:
        """A reconstruct batch meets the DMM before the session: conviction
        and debt clearing outlive the instance, so a batch for a session
        without one is still checked while the session owes."""
        dmm = self.dmm
        if inst is None and sid not in self.clock.completed:
            return  # retired, and owes nothing (see SessionClock)
        batch = self.parse_rv(body)
        if batch is None:
            return
        dmm.check_reconstruct_batch(src, sid, batch)
        if inst is not None and src not in dmm.D:  # not convicted by this very batch
            inst.handle(src, "rv", body, batch)

    def _park(self, src: int, sid: tuple, kind: str, body: object) -> None:
        seq = self._delayed_seq
        self._delayed_seq = seq + 1
        self._delayed.setdefault((src, sid), []).append((seq, kind, body))

    def _release_delayed(self) -> None:
        """Re-examine parked messages whose sender's DMM state changed.

        A parked key's verdict can only move when the DMM's view of that
        *sender* moves (conviction, arming, disarming — ``begun[sid]`` is
        fixed the moment the message parks), so the DMM marks changed
        senders dirty and only the affected keys are re-filtered: one
        verdict per (src, sid) backlog entry instead of a full re-scan of
        the parked deque on every state change.  Released messages replay
        in park order across keys, and dispatching them may dirty further
        senders, so the scan loops until the dirty set drains.
        """
        delayed = self._delayed
        dmm = self.dmm
        dirty = dmm.dirty
        if not delayed:
            if dirty:
                dirty.clear()
            return
        runtime = self._runtime
        while dirty:
            affected = [key for key in delayed if key[0] in dirty]
            dirty.clear()
            if not affected:
                return
            release: list[tuple[int, int, tuple, str, object]] = []
            for key in affected:
                src, sid = key
                runtime.dmm_verdict_calls += 1
                verdict = dmm.filter_verdict(src, sid)
                if verdict == DELAY:
                    continue
                entries = delayed.pop(key)
                if verdict == DISCARD:
                    continue
                for seq, kind, body in entries:
                    release.append((seq, src, sid, kind, body))
            release.sort()
            for _, src, sid, kind, body in release:
                self._dispatch(src, sid, kind, body)
            if not delayed:
                dirty.clear()
                return

    # ------------------------------------------------------------------
    # event routing
    # ------------------------------------------------------------------
    def notify_mw_share_complete(self, sid: tuple) -> None:
        self._runtime.notify_state_change()
        parent = sid[1]
        if is_svss(parent) and (inst := self._ensure_svss(parent)) is not None:
            inst.on_mw_share_complete(sid)
        watcher = self._watchers.get(parent)
        if watcher is not None:
            watcher.on_mw_share_complete(sid)

    def notify_mw_output(self, sid: tuple, value: object) -> None:
        self._runtime.notify_state_change()
        self.clock.note_complete(sid)
        self.dmm.on_session_reconstructed(sid)
        parent = sid[1]
        if is_svss(parent) and (inst := self._ensure_svss(parent)) is not None:
            inst.on_mw_output(sid, value)
        watcher = self._watchers.get(parent)
        if watcher is not None:
            watcher.on_mw_output(sid, value)
        self._release_delayed()

    def notify_svss_share_complete(self, sid: tuple) -> None:
        self._runtime.notify_state_change()
        watcher = self._watchers.get(sid[1])
        if watcher is not None:
            watcher.on_svss_share_complete(sid)

    def notify_svss_output(self, sid: tuple, value: object) -> None:
        self._runtime.notify_state_change()
        self.clock.note_complete(sid)
        watcher = self._watchers.get(sid[1])
        if watcher is not None:
            watcher.on_svss_output(sid, value)

    def _record_shun(self, culprit: int, session: tuple) -> None:
        runtime = self.host.runtime
        runtime.trace.record_shun(self.pid, culprit, session, runtime.now)
        monitor = runtime.monitor
        if monitor is not None:
            monitor.on_shun(self.pid, culprit, session)
