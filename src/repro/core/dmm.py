"""DMM — the detection and message management protocol (paper §3.1, §3.3).

One DMM instance runs per process for the lifetime of the scheme, filtering
every VSS-level message before the MW-SVSS/SVSS logic sees it.  It decides,
per message, whether to

* **discard** it (sender is in ``D_i`` — known faulty),
* **delay** it (the sender owes this process an expected reconstruct
  broadcast from an earlier session — the shunning mechanism), or
* **forward** it to the session logic.

It also maintains the two expectation arrays:

* ``ACK_i`` — tuples ``(j, l, c, x)``: as *dealer* of session ``(c, i)``,
  process ``i`` expects confirmer ``j`` to eventually broadcast
  ``f_l(j) = x`` during reconstruct (added at share step 7).
* ``DEAL_i`` — tuples ``(j, c, l, x)``: as a *monitor*, ``i`` expects
  confirmer ``j`` to broadcast ``f_i(j) = x`` in session ``(c, l)``
  (added at share step 3, possibly removed at step 8).

A broadcast conflicting with an expectation puts its sender in ``D_i``
forever; a broadcast that simply never arrives leaves the expectation
pending, which silently delays every later-session message from that sender
— the paper's "a process might shun without ever knowing it".

Implementation notes
--------------------
Reconstruct broadcasts are batched (one RB per process per session carrying
the map ``{monitor: value}``), so expectations are stored per
``(sender, session)`` as per-monitor maps, and a batch missing an expected
monitor entry leaves that expectation pending — identical semantics to a
missing per-monitor broadcast.  Because a batch can arrive *before* the
share-phase step that adds the matching expectation (the network is
asynchronous), delivered batches are remembered and reconciled when an
expectation is added.

Session lifetime
----------------
Expectations are only ever added during a session's share phase, so a
session *closes* for the DMM at one of two points: its reconstruct completes
locally (:meth:`DMM.on_session_reconstructed` — still-pending expectations
arm and stay, they are the shunning debt), or its owner learns that nobody
will ever reconstruct it (:meth:`DMM.forget_session` — its expectations can
never arm, gate nothing, and go).  The remembered batches of a closed session
have no expectation left to be reconciled with and are dropped; what
persists for the lifetime of the scheme is ``D``, the outstanding ACK/DEAL
debts of reconstructed sessions, and the session clock they refer to.

The delay rule only ever fires for sessions ``σ`` with ``σ →_i σ'``, and
``→_i`` requires ``σ``'s reconstruct to have *completed* locally — so the
filter keeps a per-sender index of exactly those ("armed") sessions.
During the share phase pending expectations are plentiful but unarmed, and
the filter stays O(1).

The armed index is collapsed one step further for the hot path: since
``precedes(σ, σ')`` is ``completed[σ] < begun[σ']``, a sender delays
session ``σ'`` iff the *minimum* completed tick over its armed sessions is
below ``begun[σ']`` — so :meth:`DMM.filter_verdict` is a single dict probe
per message even while dozens of sessions are armed (reconstruct storms),
and :meth:`DMM.filter_verdict_group` can answer for a whole slot-vector at
once.  ``version`` ticks on every state change that can flip some verdict
(conviction, arming, disarming), which is what lets batch ingestion cache
a group verdict across a vector's slots, and ``dirty`` names the senders
whose verdicts may have moved since the delayed-message index last looked
(consumed by ``VSSManager._release_delayed``).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable

from repro.core.sessions import SessionClock, svec_sid

#: verdicts of :meth:`DMM.filter_verdict`
FORWARD = "forward"
DELAY = "delay"
DISCARD = "discard"


class DMM:
    """Detection and message management for one process."""

    def __init__(
        self,
        pid: int,
        clock: SessionClock,
        on_shun: Callable[[int, tuple], None] | None = None,
    ):
        self.pid = pid
        self.clock = clock
        #: processes known faulty; all their VSS messages are discarded.
        self.D: set[int] = set()
        # ACK_i: (sender, session) -> {monitor: expected value}
        self._ack: dict[tuple[int, tuple], dict[int, int]] = {}
        # DEAL_i: (sender, session) -> expected value for monitor == self.pid
        self._deal: dict[tuple[int, tuple], int] = {}
        # live expectation counts: sender -> {session: count}
        self._pending: defaultdict[int, dict[tuple, int]] = defaultdict(dict)
        # senders with pending expectations, per session (for arming)
        self._session_senders: defaultdict[tuple, set[int]] = defaultdict(set)
        # deal-expectation senders per session (for step-8 removal)
        self._deal_by_session: defaultdict[tuple, set[int]] = defaultdict(set)
        # pending sessions whose reconstruct completed locally, per sender —
        # the only ones the delay rule can fire on
        self._armed: defaultdict[int, set[tuple]] = defaultdict(set)
        # sender -> min completed-tick over its armed sessions (only armed
        # sessions that actually carry a completed clock stamp — the only
        # ones precedes() can fire on); kept in lockstep with _armed so the
        # filter is one dict probe.
        self._armed_min_done: dict[int, int] = {}
        #: bumped on every state change that can flip some verdict
        #: (conviction, arming, disarming); group verdicts are only valid
        #: while the version is unchanged.
        self.version = 0
        #: senders whose verdicts may have changed since the manager's
        #: delayed-message index last examined them.
        self.dirty: set[int] = set()
        # sessions that take no new expectation (see "Session lifetime")
        self._closed_sessions: set[tuple] = set()
        # reconstruct batches seen while the session is open:
        # session -> {sender: {monitor: value}}
        self._seen_batches: dict[tuple, dict[int, dict[int, int]]] = {}
        self._on_shun = on_shun

    # -- expectations ------------------------------------------------------
    def expect_ack(self, sender: int, session: tuple, monitor: int, value: int) -> None:
        """Dealer step 7: expect ``sender`` to broadcast ``f_monitor(sender)
        = value`` during the reconstruct of ``session``."""
        if sender in self.D or sender == self.pid:
            return
        seen = self._seen_batch(sender, session)
        if seen is not None and monitor in seen:
            if seen[monitor] != value:
                self._detect(sender, session)
            return
        entries = self._ack.setdefault((sender, session), {})
        if monitor not in entries:
            entries[monitor] = value
            self._inc_pending(sender, session)

    def expect_deal(self, sender: int, session: tuple, value: int) -> None:
        """Monitor step 3: expect ``sender`` to broadcast ``f_i(sender) =
        value`` during the reconstruct of ``session``."""
        if sender in self.D or sender == self.pid:
            return
        seen = self._seen_batch(sender, session)
        if seen is not None and self.pid in seen:
            if seen[self.pid] != value:
                self._detect(sender, session)
            return
        if (sender, session) not in self._deal:
            self._deal[(sender, session)] = value
            self._deal_by_session[session].add(sender)
            self._inc_pending(sender, session)

    def _seen_batch(self, sender: int, session: tuple) -> dict[int, int] | None:
        per_sender = self._seen_batches.get(session)
        return per_sender.get(sender) if per_sender is not None else None

    def drop_deal_expectations(self, session: tuple) -> None:
        """Share step 8: this process is not in M̂, so nobody will broadcast
        values of its monitored polynomial — forget those expectations."""
        for sender in self._deal_by_session.pop(session, set()):
            if self._deal.pop((sender, session), None) is not None:
                self._dec_pending(sender, session)

    def _inc_pending(self, sender: int, session: tuple) -> None:
        per = self._pending[sender]
        per[session] = per.get(session, 0) + 1
        self._session_senders[session].add(sender)
        if session in self._closed_sessions:
            self._arm(sender, session)

    def _arm(self, sender: int, session: tuple) -> None:
        """Arm ``session`` for ``sender`` and maintain the min-tick index.

        Only a state change that can flip a verdict bumps ``version`` /
        ``dirty`` — re-arming an already-armed session with an unchanged
        minimum leaves both alone.
        """
        armed = self._armed[sender]
        changed = session not in armed
        if changed:
            armed.add(session)
        done = self.clock.completed.get(session)
        if done is not None:
            cur = self._armed_min_done.get(sender)
            if cur is None or done < cur:
                self._armed_min_done[sender] = done
                changed = True
        if changed:
            self.version += 1
            self.dirty.add(sender)

    def _dec_pending(self, sender: int, session: tuple, by: int = 1) -> None:
        per = self._pending.get(sender)
        if per is None or session not in per:
            return
        per[session] -= by
        if per[session] <= 0:
            del per[session]
            self._discard(self._session_senders, session, sender)
            armed = self._armed.get(sender)
            if armed is not None and session in armed:
                armed.discard(session)
                if not armed:
                    del self._armed[sender]
                    self._armed_min_done.pop(sender, None)
                elif self._armed_min_done.get(sender) == self.clock.completed.get(
                    session
                ):
                    completed = self.clock.completed
                    ticks = [completed[s] for s in armed if s in completed]
                    if ticks:
                        self._armed_min_done[sender] = min(ticks)
                    else:
                        self._armed_min_done.pop(sender, None)
                self.version += 1
                self.dirty.add(sender)
            if not per:
                del self._pending[sender]

    # -- session lifecycle ---------------------------------------------------
    def on_session_reconstructed(self, session: tuple) -> None:
        """Arm still-pending expectations of a session that just completed
        its reconstruct locally (it can now precede newer sessions)."""
        self._closed_sessions.add(session)
        self._seen_batches.pop(session, None)
        for sender in self._session_senders.get(session, ()):
            if session in self._pending.get(sender, ()):
                self._arm(sender, session)

    def forget_session(self, session: tuple) -> None:
        """Drop every expectation of a session nobody will reconstruct.

        ``→_i`` needs a locally *completed* reconstruct, so these
        expectations could never arm or delay anything; left in place they
        only report honest peers as suspected.  No-op once the session's
        reconstruct completed: those expectations are debts and stay.
        """
        if session in self._closed_sessions:
            return
        self._closed_sessions.add(session)
        self._seen_batches.pop(session, None)
        self._deal_by_session.pop(session, None)
        for sender in self._session_senders.pop(session, ()):
            self._ack.pop((sender, session), None)
            self._deal.pop((sender, session), None)
            per = self._pending[sender]
            del per[session]
            if not per:
                del self._pending[sender]

    # -- reconstruct-broadcast checks ----------------------------------------
    def check_reconstruct_batch(
        self, sender: int, session: tuple, batch: dict[int, int]
    ) -> None:
        """DMM steps 2-3: compare a reconstruct broadcast against
        expectations; matching entries clear, conflicting entries convict."""
        if sender == self.pid:
            return  # a process never suspects itself (cf. filter_verdict)
        if session not in self._closed_sessions:
            self._seen_batches.setdefault(session, {})[sender] = batch
        ack_entries = self._ack.get((sender, session))
        if ack_entries is not None:
            cleared = 0
            for monitor in list(ack_entries):
                if monitor not in batch:
                    continue  # still owed; expectation stays pending
                if batch[monitor] == ack_entries[monitor]:
                    del ack_entries[monitor]
                    cleared += 1
                else:
                    self._detect(sender, session)
                    return
            if not ack_entries:
                del self._ack[(sender, session)]
            if cleared:
                self._dec_pending(sender, session, cleared)
        deal_key = (sender, session)
        if deal_key in self._deal and self.pid in batch:
            if batch[self.pid] == self._deal[deal_key]:
                del self._deal[deal_key]
                self._discard(self._deal_by_session, session, sender)
                self._dec_pending(sender, session)
            else:
                self._detect(sender, session)
                return

    def _detect(self, sender: int, session: tuple) -> None:
        """Add ``sender`` to ``D_i`` (explicit detection)."""
        if sender in self.D:
            return
        self.D.add(sender)
        # Everything from a detected process is discarded from now on, so
        # its expectations no longer gate anything.
        for key in [k for k in self._ack if k[0] == sender]:
            del self._ack[key]
        for key in [k for k in self._deal if k[0] == sender]:
            del self._deal[key]
            self._discard(self._deal_by_session, key[1], sender)
        for stale in (self._pending.pop(sender, None) or {}):
            self._discard(self._session_senders, stale, sender)
        self._armed.pop(sender, None)
        self._armed_min_done.pop(sender, None)
        self.version += 1
        self.dirty.add(sender)
        if self._on_shun is not None:
            self._on_shun(sender, session)

    @staticmethod
    def _discard(index: dict[tuple, set[int]], session: tuple, sender: int) -> None:
        """Remove ``sender`` from a per-session sender index, and the
        session's entry with its last sender (the indexes are per-session,
        so an emptied entry would otherwise stay for every session ever run)."""
        senders = index.get(session)
        if senders is not None:
            senders.discard(sender)
            if not senders:
                del index[session]

    # -- the filter ------------------------------------------------------------
    def filter_verdict(self, sender: int, session: tuple) -> str:
        """Decide what to do with a VSS message from ``sender`` tagged with
        ``session`` (DMM steps 4-5).

        ``precedes(σ, σ')`` is ``completed[σ] < begun[σ']``, so *some*
        armed session precedes ``session`` iff the cached minimum completed
        tick does — one probe instead of a scan over the armed set.
        """
        if sender == self.pid:
            return FORWARD  # a process never filters itself
        if sender in self.D:
            return DISCARD
        owed = self._armed_min_done.get(sender)
        if owed is not None:
            begun = self.clock.begun.get(session)
            if begun is not None and owed < begun:
                return DELAY
        return FORWARD

    def filter_verdict_group(
        self, sender: int, group: tuple, slots: Iterable[int]
    ) -> str | None:
        """One verdict for a whole slot-vector, or ``None`` on divergence.

        The verdict varies across a vector's sibling sessions only through
        each slot's ``begun`` tick, so for senders with nothing armed the
        answer is session-independent (one probe for the vector).  For
        armed senders the slots' begun ticks are compared against the
        cached minimum completed tick in one pass; a slot not begun yet
        will be stamped with a *fresh* tick at ensure time — strictly newer
        than any completed tick — so it counts as DELAY.  Mixed outcomes
        return ``None`` and the caller re-filters per slot.

        The result is only valid while :attr:`version` is unchanged:
        dispatching one slot can convict, arm, or disarm, flipping the
        verdict for the vector's remaining slots.
        """
        if sender == self.pid:
            return FORWARD
        if sender in self.D:
            return DISCARD
        owed = self._armed_min_done.get(sender)
        if owed is None:
            return FORWARD
        begun = self.clock.begun
        verdict: str | None = None
        for slot in slots:
            b = begun.get(svec_sid(group, slot))
            v = DELAY if (b is None or owed < b) else FORWARD
            if verdict is None:
                verdict = v
            elif v != verdict:
                return None  # session clock diverges across the slots
        return verdict

    # -- introspection -----------------------------------------------------------
    def pending_sessions(self, sender: int) -> frozenset[tuple]:
        return frozenset(self._pending.get(sender, ()))

    def has_expectations(self, sender: int) -> bool:
        return bool(self._pending.get(sender))

    def shunned_or_suspected(self) -> set[int]:
        """Processes in D plus processes with unmet expectations (the
        "silent shun" set)."""
        return set(self.D) | {s for s, p in self._pending.items() if p}
