"""Asynchronous binary Byzantine agreement (paper §5).

The skeleton is Bracha's three-phase validated-vote loop — the reduction
the paper imports from [6] Fig 5-11 — with the coin pluggable: the SCC
(:class:`~repro.core.coin.CommonCoinModule`) gives the paper's protocol,
:class:`~repro.core.coin.LocalCoin` gives the Bracha-1984 exponential
baseline, :class:`~repro.core.coin.IdealCoin` gives the large-``n``
scaling stand-in.

Round ``r`` for a process with current estimate ``est``:

* **phase 1** — RB-broadcast ``est``; wait for ``n - t`` phase-1 votes;
  adopt the majority.
* **phase 2** — RB-broadcast it; wait for ``n - t`` *validated* phase-2
  votes (a phase-2 vote for ``v`` is accepted only once
  ``⌊(n-t)/2⌋ + 1`` phase-1 votes for ``v`` have been seen — the sender's
  claimed majority must be possible).  If some ``w`` exceeds ``n/2`` among
  them, the phase-3 vote is the *flagged* ``(w, D)``; else unflagged ⊥.
* **phase 3** — RB-broadcast it; wait for ``n - t`` validated phase-3
  votes (flagged ``(w, D)`` needs ``⌊n/2⌋ + 1`` accepted phase-2 votes for
  ``w``; unflagged needs a no-majority multiset of size ``n - t`` to be
  possible).  Count flagged votes for the — necessarily unique — ``w``:

  - ``>= 2t + 1``: **decide** ``w``;
  - ``>= t + 1``: adopt ``est := w``;
  - otherwise ``est :=`` the round-``r`` coin.

Validation notes (documented deviation): phase-1 votes accept any bit.
Bracha's full phase-1 justification is only load-bearing for his local-coin
analysis; with a *shunning* coin it would be a liveness hole — in a
session whose coin the adversary broke, honest processes legitimately hold
different coin values, so a coin-consistency check could leave a correct
vote unvalidated forever.  Modern n > 3t protocols (e.g. BV-broadcast
designs) make the same move.  Safety rests on the phase-2/3 thresholds,
which make the flaggable value unique system-wide and unforgeable by the
``t`` faulty processes.

Vote validation is *incremental*, one pass per vote: instead of re-running
an O(n²) fixpoint over every received vote on each delivery (the seed's
``_revalidate``), ``_on_rb`` checks a vote's shape once and stores it, and
``_ingest_vote`` accepts it against per-value tallies or parks it in a
pending list; acceptance conditions are monotone in the tallies, so a
parked vote is flushed exactly when the tally it waits on crosses its
threshold (a phase-1 acceptance can flush phase-2 votes, which can flush
phase-3 votes — the same cascade the fixpoint computed, in the same
order).  The fixpoint itself is the test suite's executable reference
(``tests/reference/aba_fixpoint.py``), armed around every ``_ingest_vote``
call of every tier-1 run.  The phase wait is re-tested only when it can
move — a current-round vote that leaves the awaited phase with ``n - t``
accepted votes; ``_enter_round`` tests it for votes buffered early.

Coin discipline: a process *joins* the round-``r`` coin on entering round
``r`` (so the interactive share stage overlaps the voting) and *releases*
it when its round position is fixed (end of phase 3) whether or not it
needs the value — every nonfaulty process releases every coin it joined,
which is what lets stragglers' reveals terminate.  Deciding processes keep
participating for one more full round and then halt; by then every
nonfaulty process has decided (the ``t + 1``-flag adoption rule), so no one
is left waiting.

Instancing: an :class:`ABAProcess` is an instance-scoped
:class:`~repro.sim.module.ProtocolModule` — many live agreements share one
host and one broadcast topic (``"aba"``), demuxed by the instance id every
vote carries (``("aba", instance_id, r, phase, vote)``).  On halting it
retires from its coin source, which lets a shared batch coin stop waiting
for it.

Recovery: a process that lost its run (a relaunched socket process whose
missed votes are gone) finishes through the host's :class:`DecisionEcho`
— it asks once, and adopts a value ``t + 1`` distinct peers answer.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.broadcast.manager import BroadcastManager
from repro.core.coin import CoinSource
from repro.errors import ProtocolError
from repro.sim.module import ProtocolModule
from repro.sim.process import ProcessHost

DecideCallback = Callable[[int], None]

#: The broadcast topic every agreement instance shares.
TOPIC = "aba"

#: Reserved topic of packed vote vectors (see :class:`VoteVectorMux`).
ABAV_TAG = "abav"

#: Host tags of the decision echo's ask and answer (see :class:`DecisionEcho`).
ASK_TAG = "dcd?"
ANSWER_TAG = "dcd"


def vote_entries(value: object) -> tuple:
    """The ``(instance_id, r, phase, vote)`` entries of an RB value: one for
    a vote ``("aba", instance_id, r, phase, vote)``, every 4-tuple of a
    vector ``("abav", seq, entries)`` (the vector's own tuple when all are:
    no copy per delivery), none for any other value."""
    if type(value) is not tuple:
        return ()
    if len(value) == 5 and value[0] == TOPIC:
        return (value[1:],)
    if len(value) == 3 and value[0] == ABAV_TAG and type(value[2]) is tuple:
        for e in value[2]:
            if type(e) is not tuple or len(e) != 4:
                return tuple(e for e in value[2] if type(e) is tuple and len(e) == 4)
        return value[2]
    return ()


class VoteVectorMux(ProtocolModule):
    """Step-window packer of a host's concurrent agreement votes.

    The session-vector move one layer up: ``K`` concurrent
    :class:`ABAProcess` instances advance in lock-step under a fixed-delay
    scheduler, so each dispatch step ends with the host holding ``K``
    structurally identical votes — one per instance — for the same
    ``(round, phase)``.  Instead of ``K`` reliable broadcasts (each with
    its own O(n²) echo cascade) the mux emits one

        ``("abav", seq, ((instance_id, r, phase, vote), ...))``

    under bid ``(pid, "abav", seq)``; the receive side hands each entry to
    its instance's handler in the live ``"aba"`` slot table
    (:meth:`~repro.broadcast.manager.BroadcastManager.topic_slots`), with
    the unknown- and unhashable-id drops a plain per-vote broadcast meets
    in :class:`~repro.sim.process.InstanceSlots`.

    One mux per host, created lazily by the first ``ABAProcess._wire`` and
    shared by every instance the host runs.  Packing preserves the
    per-vote adversarial surface the same way the session vectors do:

    * corrupt senders never pack — a host with a byzantine behaviour or an
      outbound filter broadcasts plain per-instance votes, so vote
      mutators and crash budgets keep acting on logical votes (a forged
      ``("abav", ...)`` vector is unpacked with full per-entry validation,
      but can equivocate as a session fold can: see ``vectormux``);
    * a receiver that crashes while fanning out entry ``k`` drops the
      remaining entries, exactly as it would drop the remaining per-vote
      deliveries;
    * solo runs (fewer than two live instances) never pack, so a
      single-agreement run replays the per-vote wire stream bit for bit.
    """

    MODULE_KIND = ABAV_TAG

    def __init__(self, host: ProcessHost, broadcast: BroadcastManager):
        super().__init__()
        self._broadcast = broadcast
        #: Buffered (bid, value) pairs of the open step, in program order.
        self._pending: list[tuple[tuple, tuple]] = []
        self._deferred = False
        #: Disambiguates successive flushes' bids (cf. SessionVectorMux).
        self._seq = 0
        #: Live ABAProcess instances on this host; packing needs >= 2.
        self.live = 0
        self.attach(host)

    def _wire(self, host: ProcessHost) -> None:
        self.subscribe(self._broadcast, ABAV_TAG, self._on_rb)

    # -- send side ---------------------------------------------------------
    def offer(self, bid: tuple, value: tuple) -> bool:
        """Buffer one vote broadcast; False = caller broadcasts plain."""
        host = self.host
        runtime = host.runtime
        if not runtime.svec or not runtime.svec_buffering or self.live < 2:
            return False
        if host.behavior is not None or host.outbound_filter is not None:
            return False
        self._pending.append((bid, value))
        if not self._deferred:
            self._deferred = True
            runtime.svec_defer(self)
        return True

    def flush(self) -> None:
        """Emit the step's buffer: one vector, plain for singletons."""
        self._deferred = False
        pending, self._pending = self._pending, []
        if not pending:
            return
        if len(pending) == 1:
            bid, value = pending[0]
            self._broadcast.broadcast(bid, value)
            return
        seq = self._seq
        self._seq = seq + 1
        # value = (TOPIC, instance_id, r, phase, vote); strip the shared
        # topic, keep the rest as the entry.
        entries = tuple(value[1:] for _, value in pending)
        self._broadcast.broadcast(
            (self.host.pid, ABAV_TAG, seq), (ABAV_TAG, seq, entries)
        )
        runtime = self.host.runtime
        runtime.svec_packed += 1
        runtime.svec_slots += len(pending)

    # -- receive side ------------------------------------------------------
    def _on_rb(self, origin: int, value: tuple) -> None:
        host = self.host
        epoch = host.crash_epoch
        topic_slots = self._broadcast.topic_slots
        slots = topic_slots(TOPIC)
        for iid, r, phase, vote in vote_entries(value):
            if host.crashed or host.crash_epoch != epoch:
                # Crash mid-vector: the remaining votes die too, exactly
                # like the remaining per-vote deliveries would.
                return
            try:
                # A miss re-reads the table: the emptied one may have been
                # replaced by a new one meanwhile.
                handler = slots.get(iid) or topic_slots(TOPIC).get(iid)
            except TypeError:
                continue  # unhashable instance id from a byzantine origin
            if handler is not None:
                handler(origin, (TOPIC, iid, r, phase, vote))


class _Round:
    """Per-round vote bookkeeping.

    ``accepted`` preserves acceptance order (snapshots take the first
    ``n - t`` accepted votes); ``counts1``/``counts2`` tally accepted
    phase-1/2 votes per value, and ``pending2``/``pending3`` park votes
    whose validation thresholds have not been reached yet.
    """

    __slots__ = (
        "received",
        "accepted",
        "snapshot",
        "sent",
        "resolved",
        "counts1",
        "counts2",
        "pending2",
        "pending3",
    )

    def __init__(self) -> None:
        # phase -> {sender: vote}; insertion order = acceptance order
        self.received: dict[int, dict[int, object]] = {1: {}, 2: {}, 3: {}}
        self.accepted: dict[int, dict[int, object]] = {1: {}, 2: {}, 3: {}}
        self.snapshot: dict[int, list[object]] = {}
        self.sent: dict[int, bool] = {1: False, 2: False, 3: False}
        self.resolved = False
        self.counts1 = [0, 0]
        self.counts2 = [0, 0]
        self.pending2: tuple[list, list] = ([], [])  # per claimed value
        self.pending3: list[tuple[int, object]] = []


class ABAProcess(ProtocolModule):
    """One process' agreement state machine (one instance)."""

    MODULE_KIND = "aba"

    def __init__(
        self,
        host: ProcessHost,
        broadcast: BroadcastManager,
        coin: CoinSource,
        instance_id: object = "aba",
        on_decide: DecideCallback | None = None,
    ):
        super().__init__()
        self.coin = coin
        self.on_decide = on_decide
        #: ``on_round(self, r)`` on entering round ``r``: the driver's hook.
        self.on_round: Callable[[ABAProcess, int], None] | None = None
        self._broadcast = broadcast
        self.input: int | None = None
        self.est: int | None = None
        self.round = 0
        self.rounds: dict[int, _Round] = {}
        self.waiting_phase = 0  # phase this process is currently blocked on
        self.awaiting_coin = False
        self.decided: int | None = None
        self.decide_round: int | None = None
        self.halted = False
        self.attach(host, instance_id)

    def _wire(self, host: ProcessHost) -> None:
        self.pid = host.pid
        self.config = host.runtime.config
        self.n = self.config.n
        self.t = self.config.t
        self._wait = self.n - self.t
        # A phase-2 vote claims the majority of some n-t phase-1 snapshot;
        # ties break to 0, so it needs ceil((n-t)/2) zeros or a strict
        # majority floor((n-t)/2)+1 of ones.
        self._need2 = ((self._wait + 1) // 2, self._wait // 2 + 1)
        self.subscribe_slot(self._broadcast, TOPIC, self._on_rb)
        # The host's shared vote-vector packer (created by whichever
        # instance wires first); live-instance accounting gates packing.
        if host.has_module(ABAV_TAG):
            mux = host.module(ABAV_TAG)
        else:
            mux = VoteVectorMux(host, self._broadcast)
        self._vote_mux = mux
        mux.live += 1

    def _on_close(self) -> None:
        # A halted instance stops counting toward the packing gate (a
        # last survivor falls back to plain per-vote broadcasts), and
        # nobody waits on it for an answer it will never give.
        self._vote_mux.live -= 1
        if self.host.has_module(DecisionEcho.MODULE_KIND):
            self.host.module(DecisionEcho.MODULE_KIND).askers.pop(self.instance_id, None)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def start(self, input_value: int) -> None:
        """Begin the agreement with a binary input."""
        if input_value not in (0, 1):
            raise ProtocolError(f"ABA input must be 0 or 1, got {input_value!r}")
        if self.input is not None:
            raise ProtocolError("agreement already started")
        self.input = input_value
        self.est = input_value
        self._enter_round(1)

    @property
    def rounds_used(self) -> int:
        """Rounds entered so far (the paper's round-complexity metric)."""
        return self.round

    # ------------------------------------------------------------------
    # round machinery
    # ------------------------------------------------------------------
    def _round_state(self, r: int) -> _Round:
        state = self.rounds.get(r)
        if state is None:
            state = _Round()
            self.rounds[r] = state
        return state

    def _coin_sid(self, r: int) -> tuple:
        return ("cc", self.instance_id, r)

    def _enter_round(self, r: int) -> None:
        self.round = r
        if self.on_round is not None:
            self.on_round(self, r)
        # Round counters are wait-predicate-observable (max_rounds guards).
        self.notify()
        monitor = self.host.runtime.monitor
        if monitor is not None:
            monitor.on_round(self.instance_id, self.pid, r)
        self.coin.join(self._coin_sid(r))
        state = self._round_state(r)
        self._send_vote(state, r, 1, self.est)
        self.waiting_phase = 1
        self._maybe_advance(state)

    def _send_vote(self, state: _Round, r: int, phase: int, vote: object) -> None:
        if state.sent[phase] or self.halted:
            return
        state.sent[phase] = True
        deviate = self.host.deviation("aba_vote")
        if deviate is not None:
            vote = deviate(r, phase, vote)
        bid = (self.pid, TOPIC, self.instance_id, r, phase)
        value = (TOPIC, self.instance_id, r, phase, vote)
        if not self._vote_mux.offer(bid, value):
            self._broadcast.broadcast(bid, value)

    # ------------------------------------------------------------------
    # vote intake and validation
    # ------------------------------------------------------------------
    def _on_rb(self, origin: int, value: tuple) -> None:
        if len(value) != 5:
            return
        _, _, r, phase, vote = value
        if not isinstance(r, int) or r < 1:
            return
        if phase in (1, 2):
            if vote not in (0, 1):
                return
        elif phase != 3 or not self._well_formed(vote):
            return
        state = self.rounds.get(r)
        if state is None:
            state = self.rounds[r] = _Round()
        received = state.received[phase]
        if origin in received:
            return
        received[origin] = vote
        self._ingest_vote(state, phase, origin, vote)
        if r == self.round and len(state.accepted[self.waiting_phase]) >= self._wait:
            self._maybe_advance(state)

    @staticmethod
    def _well_formed(vote: object) -> bool:
        """The shape of a phase-3 vote: flagged ``(w, True)`` or ⊥."""
        return (
            isinstance(vote, tuple)
            and len(vote) == 2
            and isinstance(vote[1], bool)
            and (vote[0] in (0, 1) if vote[1] else vote[0] is None)
        )

    def _ingest_vote(self, state: _Round, phase: int, origin: int, vote: object) -> None:
        """Accept the vote if its claim is possible, else park it.

        Acceptance conditions are monotone nondecreasing in the accepted
        tallies, so parked votes are re-examined exactly when a tally they
        depend on grows — matching the seed fixpoint's cascade (and its
        acceptance order, which the phase snapshots depend on).
        """
        if phase == 1:
            state.accepted[1][origin] = vote
            state.counts1[vote] += 1
            if state.pending2[vote]:
                self._flush_phase2(state, vote)
        elif phase == 2:
            if state.counts1[vote] >= self._need2[vote]:
                state.accepted[2][origin] = vote
                state.counts2[vote] += 1
                if state.pending3:
                    self._flush_phase3(state)
            else:
                state.pending2[vote].append((origin, vote))
        elif self._phase3_possible(state, vote):
            state.accepted[3][origin] = vote
        else:
            state.pending3.append((origin, vote))

    def _phase3_possible(self, state: _Round, vote: tuple) -> bool:
        w, flagged = vote
        counts = state.counts2
        if flagged:
            return counts[w] >= self.n // 2 + 1
        # Unflagged: some n-t sub-multiset of phase-2 votes with no strict
        # majority must be possible given what we have accepted.
        side = self._wait - self.n // 2
        return counts[0] >= side and counts[1] >= side and counts[0] + counts[1] >= self._wait

    def _flush_phase2(self, state: _Round, value: int) -> None:
        """A phase-1 tally grew: parked phase-2 votes for that value may
        now be possible (all of them at once — the threshold is shared)."""
        if state.counts1[value] < self._need2[value]:
            return
        pending = state.pending2[value]
        accepted = state.accepted[2]
        for origin, vote in pending:
            accepted[origin] = vote
            state.counts2[value] += 1
        pending.clear()
        if state.pending3:
            self._flush_phase3(state)

    def _flush_phase3(self, state: _Round) -> None:
        """A phase-2 tally grew: re-examine parked phase-3 votes in arrival
        order (one pass suffices — phase-3 acceptance changes no tally)."""
        still: list[tuple[int, object]] = []
        accepted = state.accepted[3]
        for origin, vote in state.pending3:
            if self._phase3_possible(state, vote):
                accepted[origin] = vote
            else:
                still.append((origin, vote))
        state.pending3 = still

    # ------------------------------------------------------------------
    # the process' own phase progression
    # ------------------------------------------------------------------
    def _maybe_advance(self, state: _Round) -> None:
        """Take every phase snapshot the current round's ``state`` allows."""
        if self.halted or self.awaiting_coin:
            return
        while self.waiting_phase in (1, 2, 3):
            phase = self.waiting_phase
            if phase in state.snapshot:
                break
            accepted = state.accepted[phase]
            if len(accepted) < self._wait:
                break
            snapshot = list(accepted.values())[: self._wait]
            state.snapshot[phase] = snapshot
            if phase == 1:
                votes = sum(1 for v in snapshot if v == 1)
                majority = 1 if votes * 2 > len(snapshot) else 0
                self._send_vote(state, self.round, 2, majority)
                self.waiting_phase = 2
            elif phase == 2:
                counts = [0, 0]
                for v in snapshot:
                    counts[v] += 1
                if counts[0] > self.n / 2:
                    vote3: tuple = (0, True)
                elif counts[1] > self.n / 2:
                    vote3 = (1, True)
                else:
                    vote3 = (None, False)
                self._send_vote(state, self.round, 3, vote3)
                self.waiting_phase = 3
            else:
                self._resolve_round(state)
                break

    def _resolve_round(self, state: _Round) -> None:
        if state.resolved:
            return
        state.resolved = True
        r = self.round
        snapshot = state.snapshot[3]
        flag_counts = [0, 0]
        for vote in snapshot:
            w, flagged = vote
            if flagged:
                flag_counts[w] += 1
        winner = 0 if flag_counts[0] >= flag_counts[1] else 1
        count = flag_counts[winner]
        need_coin = count < self.t + 1
        # Our position in this round is now fixed: the coin may be revealed.
        self.coin.release(self._coin_sid(r))
        if count >= 2 * self.t + 1:
            self.est = winner
            self._decide(winner, r)
        elif count >= self.t + 1:
            self.est = winner
        if need_coin:
            self.awaiting_coin = True
            self.coin.get(self._coin_sid(r), lambda v, r=r: self._on_coin(r, v))
        else:
            # Still fetch the value (it validates nothing but records stats)
            self.coin.get(self._coin_sid(r), lambda v, r=r: None)
            self._finish_round(r)

    def _on_coin(self, r: int, value: int) -> None:
        if self.awaiting_coin and self.round == r:
            self.awaiting_coin = False
            self.est = value
            self._finish_round(r)

    def _finish_round(self, r: int) -> None:
        if self.decided is not None and r >= self.decide_round + 1:
            self.halted = True
            # Let a shared batch coin stop waiting on this instance.
            retire = getattr(self.coin, "retire", None)
            if retire is not None:
                retire(r)
            # Auto-prune: a halted instance releases its broadcast slot
            # immediately, so long-lived runtimes never accumulate dead
            # demux entries (no driver-side close() needed).  Stragglers'
            # late votes for this instance are dropped at topic routing —
            # exactly what the halted guard made of them before.
            self.close()
            return
        self._enter_round(r + 1)

    def _decide(self, value: int, r: int) -> None:
        if self.decided is not None:
            return
        self.decided = value
        self.decide_round = r
        monitor = self.host.runtime.monitor
        if monitor is not None:
            monitor.on_decision(self.instance_id, self.pid, value, r)
        if self.on_decide is not None:
            self.on_decide(value)
        # After on_decide so a wait predicate re-evaluated by this change
        # already sees the recorded decision.
        self.notify()


class DecisionEcho(ProtocolModule):
    """Bracha-style decision echo, one per host (:meth:`of`): how a process
    that lost its run learns the decision.  Messages move it, never a timer.

    :meth:`ask` sends ``("dcd?", instance)`` once to every other process; a
    holder of the decision (run, journaled or adopted: :meth:`hold`)
    answers ``("dcd", instance, value)`` at once, a process still running
    the instance when it decides.  The asker adopts on ``t + 1`` matching
    answers from distinct pids (one is honest), judged by an installed
    monitor as a round-0 decision.  Nobody asking means no echo message;
    forgers grow nothing: answers are kept for asked instances only (a
    pid's first, once), askers for running ones (dropped when the process
    closes), malformed payloads dropped.  ``held`` answers every later ask
    and stays for the host's life (ROADMAP 21 would bound it by the journal).
    """

    MODULE_KIND = "echo"

    def __init__(self, host: ProcessHost):
        super().__init__()
        self.held: dict[object, int] = {}  # instance -> this host's decision
        self.askers: dict[object, int] = {}  # instance -> waiting pids' mask
        self.answers: dict[object, list[int]] = {}  # asked -> per-value masks
        #: ``on_adopt(instance, pid, value, 0)`` on adoption: the driver's feed.
        self.on_adopt: Callable[[object, int, int, int], None] | None = None
        self.attach(host)

    @classmethod
    def of(cls, host: ProcessHost) -> "DecisionEcho":
        """The host's echo, created on first use."""
        return host.module("echo") if host.has_module("echo") else cls(host)

    def _wire(self, host: ProcessHost) -> None:
        self.quorum = host.runtime.config.t + 1  # matching answers to adopt
        self.register(ASK_TAG, self._on_ask)
        self.register(ANSWER_TAG, self._on_answer)

    def _send(self, mask: int, payload: tuple) -> None:
        for dst in self.host.runtime.config.pids:
            if mask >> dst & 1:
                self.host.send(dst, payload, "echo")

    def ask(self, instance: object) -> None:
        """Ask every other process for ``instance``'s decision, once."""
        if instance not in self.held and instance not in self.answers:
            self.answers[instance] = [0, 0]
            self._send(~(1 << self.host.pid), (ASK_TAG, instance))

    def hold(self, instance: object, value: int) -> None:
        """Keep this host's decision and answer whoever waits for it."""
        if instance not in self.held:
            self.held[instance] = value
            self.answers.pop(instance, None)
            self._send(self.askers.pop(instance, 0), (ANSWER_TAG, instance, value))

    def _on_ask(self, src: int, payload: tuple) -> None:
        try:
            _, instance = payload
            value = self.held.get(instance)
        except (TypeError, ValueError):
            return  # malformed, or an unhashable instance id
        if value is not None:
            self._send(1 << src, (ANSWER_TAG, instance, value))
        elif self.host.has_module((ABAProcess.MODULE_KIND, instance)):
            self.askers[instance] = self.askers.get(instance, 0) | 1 << src

    def _on_answer(self, src: int, payload: tuple) -> None:
        try:
            _, instance, value = payload
            masks = self.answers.get(instance)
        except (TypeError, ValueError):
            return  # malformed, or an unhashable instance id
        if masks is None or type(value) is not int or value not in (0, 1):
            return
        if (masks[0] | masks[1]) >> src & 1:
            return  # a pid's first answer is its only one
        masks[value] |= 1 << src
        if masks[value].bit_count() >= self.quorum:
            monitor = self.host.runtime.monitor
            if monitor is not None:
                monitor.on_round(instance, self.host.pid, 0)
                monitor.on_decision(instance, self.host.pid, value, 0)
            self.hold(instance, value)
            if self.on_adopt is not None:
                self.on_adopt(instance, self.host.pid, value, 0)
            self.notify()
