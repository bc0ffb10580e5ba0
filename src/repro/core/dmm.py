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
State is session-first, like the paper's ``ACK[σ]`` / ``DEAL[σ]`` arrays: one
:class:`_Ledger` per session holds masks over values the session holds
anyway — DEAL a sender mask over the monitor's ``mon`` body (kept past the
``L`` freeze), ACK a monitor mask per sender over the dealer's share
columns, each row let go with its last bit — so an entry point costs one
session-keyed probe; a per-sender count of unmet expectations answers
:meth:`DMM.has_expectations`.  Reconstruct broadcasts are batched (one RB
per process per session, a mask over its wire tuple), and a batch missing
an expected monitor entry leaves that expectation pending — identical
semantics to a missing per-monitor broadcast.  A batch can arrive *before*
the share-phase step that adds the matching expectation (the network is
asynchronous), so that step hands over the batch the MW-SVSS instance keeps
and interpolates with (``rv_batches``, the first delivery), judged on the
spot: the DMM keeps no batch, and judges no other.

Session lifetime
----------------
Expectations are only ever added during a session's share phase, so a
session *closes* for the DMM at one of two points: its reconstruct completes
locally (:meth:`DMM.on_session_reconstructed` — still-pending expectations
arm and stay, they are the shunning debt), or its owner learns that nobody
will ever reconstruct it (:meth:`DMM.forget_session` — its expectations can
never arm, gate nothing, and go).  A ledger that holds nothing is dropped;
what persists for the lifetime of the scheme is ``D``, the ledgers of
reconstructed sessions that still hold a debt, and their ``completed``
stamps.  When a sharing leaves the manager's tables,
:meth:`DMM.retire` drops its sessions' closed marks and ``completed``
stamps (a debt's stamp goes with its ledger): a retired session has no
instance, so no begin stamp, and reads as begun long ago, and a late batch
for it is checked only while it owes.

The delay rule only ever fires for sessions ``σ`` with ``σ →_i σ'``, and
``→_i`` requires ``σ``'s reconstruct to have *completed* locally — so the
filter keeps a per-sender index of exactly those ("armed") sessions.
During the share phase pending expectations are plentiful but unarmed, and
the filter stays O(1).

The armed index is collapsed one step further for the hot path: since
``σ →_i σ'`` is ``completed[σ] <= begun[σ']`` (``SessionClock``), a
sender delays session ``σ'`` iff the *minimum* completed stamp over its
armed sessions is at most ``begun[σ']`` — so :meth:`DMM.filter_verdict` is
a single dict probe per message even while dozens of sessions are armed
(reconstruct storms), and :meth:`DMM.filter_verdict_group` can answer for
a whole slot-vector at once.  The begin stamps come from the caller, which
holds the session's instance.  ``version`` ticks on every state change
that can flip some verdict (conviction, arming, disarming), which is what
lets batch ingestion cache a group verdict across a vector's slots, and
``dirty`` names the senders whose verdicts may have moved since the
delayed-message index last looked (consumed by
``VSSManager._release_delayed``).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable

from repro.core.mwsvss import point, rv_value
from repro.core.sessions import SessionClock
from repro.field.gf import Field

#: verdicts of :meth:`DMM.filter_verdict`
FORWARD = "forward"
DELAY = "delay"
DISCARD = "discard"


def _pids(mask: int) -> list[int]:
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


class _Ledger:
    """What the DMM holds for one session: the paper's ``DEAL[σ]`` and
    ``ACK[σ]`` rows as masks over value rows the session's instances hold
    anyway, each allocated with its first entry."""

    __slots__ = ("deal", "deal_row", "ack", "ack_rows")

    def __init__(self):
        self.deal = 0  # mask: senders owing f_i(sender) = point(deal_row, sender)
        self.deal_row: tuple | None = None  # the monitor's ``mon`` body f_i(1..t+1)
        self.ack: list[int] | None = None  # [sender] = mask of the monitors j owed
        self.ack_rows: tuple | None = None  # the dealer's columns: f_j(l) = [l][j - 1]

    def owed(self, sender: int) -> int:  # expectations ``sender`` has not met here
        return (self.deal >> sender & 1) + (self.ack[sender].bit_count() if self.ack else 0)

    def debtors(self) -> list[int]:
        """The senders owing some expectation here, ascending."""
        span = max(self.deal.bit_length(), len(self.ack or ()))
        return [p for p in range(span) if self.owed(p)]


class DMM:
    """Detection and message management for one process."""

    def __init__(
        self,
        pid: int,
        clock: SessionClock,
        field: Field,
        on_shun: Callable[[int, tuple], None] | None = None,
    ):
        self.pid = pid
        self.clock = clock
        self.field = field
        #: processes known faulty; all their VSS messages are discarded.
        self.D: set[int] = set()
        # session -> its ledger; a ledger holding nothing is dropped, and a
        # session without one is open iff not closed and not retired.
        self._ledgers: dict[tuple, _Ledger] = {}
        # sender -> number of expectations it has not met, over all ledgers
        self._owed: dict[int, int] = {}
        # pending sessions whose reconstruct completed locally, per sender —
        # the only ones the delay rule can fire on
        self._armed: defaultdict[int, set[tuple]] = defaultdict(set)
        # sender -> min completed stamp over its armed sessions (only armed
        # sessions that actually carry one — the only ones →_i can fire
        # on); kept in lockstep with _armed so the
        # filter is one dict probe.
        self._armed_min_done: dict[int, int] = {}
        #: bumped on every state change that can flip some verdict
        #: (conviction, arming, disarming); group verdicts are only valid
        #: while the version is unchanged.
        self.version = 0
        #: senders whose verdicts may have changed since the manager's
        #: delayed-message index last examined them.
        self.dirty: set[int] = set()
        # closed sessions (see "Session lifetime"), until ``retire`` forgets them
        self._closed_sessions: set[tuple] = set()
        self._on_shun = on_shun

    # -- expectations ------------------------------------------------------
    def expect_ack(self, sender: int, session: tuple, monitor: int, rows, batch) -> None:
        """Dealer step 7: expect ``sender`` to broadcast ``f_monitor(sender)
        = rows[sender][monitor - 1]`` (the share columns the dealer sent)
        during the reconstruct of ``session``; ``batch`` is the sender's
        batch the session holds (``rv_batches``), or ``None``."""
        ledger = self._ledger_for(
            sender, session, monitor, batch, lambda: rows[sender][monitor - 1]
        )
        if ledger is not None:
            if ledger.ack is None:
                ledger.ack, ledger.ack_rows = [0] * len(rows), rows
            if not ledger.ack[sender] >> monitor & 1:
                ledger.ack[sender] |= 1 << monitor
                self._owe(sender, session)

    def expect_deal(self, sender: int, session: tuple, row, batch) -> None:
        """Monitor step 3: expect ``sender`` to broadcast ``f_i(sender)``, the
        point of ``row`` (the ``mon`` body) its confirm value matched, during
        the reconstruct of ``session``; ``batch`` as for :meth:`expect_ack`."""
        ledger = self._ledger_for(
            sender, session, self.pid, batch, lambda: self._deal_value(row, sender)
        )
        if ledger is not None and not ledger.deal >> sender & 1:
            if ledger.deal_row is None:
                ledger.deal_row = row
            ledger.deal |= 1 << sender
            self._owe(sender, session)

    def _deal_value(self, row: tuple, sender: int) -> int:
        return point(self.field, len(row) - 1, row, sender)  # row: t + 1 values

    def _ledger_for(
        self, sender: int, session: tuple, monitor: int, batch, expected: Callable[[], int]
    ) -> _Ledger | None:
        """The ledger a new expectation of ``sender`` goes into — ``None``
        when none is recorded: the sender is convicted or this process, or
        its ``batch`` already answered for ``monitor`` (judged against ``expected()``)."""
        if sender in self.D or sender == self.pid:
            return None
        value = None if batch is None else rv_value(batch, monitor)
        if value is not None:
            if value != expected():
                self._detect(sender, session)
            return None
        ledger = self._ledgers.get(session)
        if ledger is None:
            ledger = self._ledgers[session] = _Ledger()
        return ledger

    def drop_deal_expectations(self, session: tuple) -> None:
        """Share step 8: this process is not in M̂, so nobody will broadcast
        values of its monitored polynomial — forget those expectations."""
        ledger = self._ledgers.get(session)
        if ledger is not None and ledger.deal:
            dropped, ledger.deal = ledger.deal, 0
            for sender in _pids(dropped):
                self._settle(sender, session, ledger)
            self._drop_if_empty(session, ledger)

    def _owe(self, sender: int, session: tuple) -> None:
        self._owed[sender] = self._owed.get(sender, 0) + 1
        if session in self._closed_sessions:
            self._arm(sender, session)

    def _arm(self, sender: int, session: tuple) -> None:
        """Arm ``session`` for ``sender`` and maintain the min-stamp index.

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

    def _pay(self, sender: int, by: int) -> None:
        self._owed[sender] -= by
        if not self._owed[sender]:
            del self._owed[sender]

    def _settle(self, sender: int, session: tuple, ledger: _Ledger, by: int = 1) -> None:
        """``by`` expectations of ``sender`` just left ``ledger``; with the
        last one the session stops gating the sender's messages."""
        self._pay(sender, by)
        if ledger.owed(sender):
            return
        armed = self._armed.get(sender)
        if armed is not None and session in armed:
            armed.discard(session)
            if not armed:
                del self._armed[sender]
                self._armed_min_done.pop(sender, None)
            elif self._armed_min_done.get(sender) == self.clock.completed.get(session):
                completed = self.clock.completed
                ticks = [completed[s] for s in armed if s in completed]
                if ticks:
                    self._armed_min_done[sender] = min(ticks)
                else:
                    self._armed_min_done.pop(sender, None)
            self.version += 1
            self.dirty.add(sender)

    def _drop_if_empty(self, session: tuple, ledger: _Ledger) -> None:
        """Let go of each row no mask reads any more, and of an empty ledger."""
        if not ledger.deal:
            ledger.deal_row = None
        if not any(ledger.ack or ()):
            ledger.ack = ledger.ack_rows = None
        if not (ledger.deal or ledger.ack):
            del self._ledgers[session]
            if self.clock.finished(session):  # the last debt of a retired session
                self.clock.completed.pop(session, None)

    # -- session lifecycle ---------------------------------------------------
    def on_session_reconstructed(self, session: tuple) -> None:
        """Arm still-pending expectations of a session that just completed
        its reconstruct locally (it can now precede newer sessions)."""
        self._closed_sessions.add(session)
        ledger = self._ledgers.get(session)
        if ledger is not None:
            for sender in ledger.debtors():
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
        ledger = self._ledgers.pop(session, None)
        if ledger is not None:
            for sender in ledger.debtors():
                self._pay(sender, ledger.owed(sender))

    def retire(self, sessions: Iterable[tuple]) -> None:
        """``sessions`` left the manager's tables: forget all but their debts."""
        completed = self.clock.completed
        for session in sessions:
            self._closed_sessions.discard(session)
            if session not in self._ledgers:
                completed.pop(session, None)

    # -- reconstruct-broadcast checks ----------------------------------------
    def check_reconstruct_batch(self, sender: int, session: tuple, batch: tuple) -> None:
        """DMM steps 2-3: compare a reconstruct broadcast (``parse_rv``'s) against
        expectations; matching entries clear, conflicting entries convict."""
        if sender == self.pid:
            return  # a process never suspects itself (cf. filter_verdict)
        ledger = self._ledgers.get(session)
        if ledger is None:
            return  # nothing owed here; the session's instance keeps the batch
        owed = ledger.ack[sender] if ledger.ack else 0
        if owed:
            rows, cleared = ledger.ack_rows, 0
            for monitor in _pids(owed):
                value = rv_value(batch, monitor)
                if value is None:
                    continue  # still owed; expectation stays pending
                if value != rows[sender][monitor - 1]:
                    self._detect(sender, session)
                    return
                owed ^= 1 << monitor
                cleared += 1
            if cleared:
                ledger.ack[sender] = owed
                self._settle(sender, session, ledger, cleared)
        value = rv_value(batch, self.pid) if ledger.deal >> sender & 1 else None
        if value is not None:
            if value != self._deal_value(ledger.deal_row, sender):
                self._detect(sender, session)
                return
            ledger.deal ^= 1 << sender
            self._settle(sender, session, ledger)
        self._drop_if_empty(session, ledger)

    def _detect(self, sender: int, session: tuple) -> None:
        """Add ``sender`` to ``D_i`` (explicit detection)."""
        if sender in self.D:
            return
        self.D.add(sender)
        # Everything from a detected process is discarded from now on, so
        # its expectations no longer gate anything.
        if self._owed.pop(sender, None) is not None:
            for stale, ledger in list(self._ledgers.items()):
                if ledger.owed(sender):
                    ledger.deal &= ~(1 << sender)
                    if ledger.ack:
                        ledger.ack[sender] = 0
                    self._drop_if_empty(stale, ledger)
        self._armed.pop(sender, None)
        self._armed_min_done.pop(sender, None)
        self.version += 1
        self.dirty.add(sender)
        if self._on_shun is not None:
            self._on_shun(sender, session)

    # -- the filter ------------------------------------------------------------
    def filter_verdict(self, sender: int, begun: int | None) -> str:
        """Decide what to do with a VSS message from ``sender`` for a
        session begun at ``begun`` (its instance's stamp; ``None``: retired,
        begun long ago) — DMM steps 4-5.

        *Some* armed session precedes the message's session iff the cached
        minimum completed stamp does — one probe instead of a scan over the
        armed set.
        """
        if sender == self.pid:
            return FORWARD  # a process never filters itself
        if sender in self.D:
            return DISCARD
        owed = self._armed_min_done.get(sender)
        if owed is not None and begun is not None and owed <= begun:
            return DELAY
        return FORWARD

    def filter_verdict_group(self, sender: int, stamps: Iterable[int | None]) -> str | None:
        """One verdict for a whole slot-vector, or ``None`` on divergence.

        ``stamps`` are the slots' begin stamps, as for :meth:`filter_verdict`
        (a slot not begun yet: the clock's count, which its instance will
        read).  They are the only thing the verdict reads that varies
        across a vector's sibling sessions, so for senders with nothing
        armed the answer is one probe for the vector and ``stamps`` is
        never read; for armed senders they are compared against the cached
        minimum in one pass.  Mixed outcomes return ``None`` and the caller
        re-filters per slot.

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
        verdict: str | None = None
        for begun in stamps:
            v = DELAY if begun is not None and owed <= begun else FORWARD
            if verdict is None:
                verdict = v
            elif v != verdict:
                return None  # the begin stamps diverge across the slots
        return verdict

    # -- introspection -----------------------------------------------------------
    def pending_sessions(self, sender: int) -> frozenset[tuple]:
        return frozenset(s for s, ledger in self._ledgers.items() if ledger.owed(sender))

    def has_expectations(self, sender: int) -> bool:
        return sender in self._owed

    def shunned_or_suspected(self) -> set[int]:
        """Processes in D plus processes with unmet expectations (the
        "silent shun" set)."""
        return self.D | set(self._owed)
