"""High-level one-call API: build a stack, run a protocol, collect results.

This is the public face of the library::

    from repro import SystemConfig, run_byzantine_agreement

    result = run_byzantine_agreement(
        inputs=[0, 1, 1, 0], config=SystemConfig(n=4, seed=42), coin="svss",
    )
    assert result.agreed

Coins: ``"svss"`` is the paper's protocol (full SVSS shunning common coin);
``"local"`` is the Bracha/Ben-Or private-coin baseline; ``("ideal", p)``
is an oracle coin that agrees with probability ``p`` (use measured SCC
rates to emulate the full stack at large ``n``).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import groupby
from typing import ClassVar

from repro.adversary.controller import Adversary, no_adversary
from repro.broadcast.manager import BroadcastManager
from repro.config import SystemConfig
from repro.core.agreement import ABAProcess, DecisionEcho
from repro.core.coin import (
    SHARED_TAG,
    CoinSource,
    CommonCoinModule,
    IdealCoin,
    IdealCoinOracle,
    LocalCoin,
    SharedCoinGate,
    coin_kind,
)
from repro.core.manager import CallbackWatcher, VSSManager
from repro.core.mwsvss import BOTTOM
from repro.core.sessions import mw_session, svss_session
from repro.errors import ConfigurationError, DeadlockError, ProtocolError
from repro.sim.monitor import InvariantMonitor
from repro.sim.runtime import DEFAULT_MAX_EVENTS, Runtime
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Trace

CoinSpec = object  # str | tuple | callable

#: Instance id of the single agreement a plain ``run_byzantine_agreement``
#: runs; batch runs use ``("aba", k)`` per instance and share the round-coin
#: sessions of this id.
DEFAULT_INSTANCE = SHARED_TAG


@dataclass
class Stack:
    """One assembled system: runtime plus the per-process substrate.

    ``broadcasts`` and ``vss`` are built once per process and shared by
    every agreement instance and coin on top of them; the coins and
    agreement processes themselves belong to whoever builds them
    (:func:`make_coins`, the agreement drivers), not to the stack.
    """

    config: SystemConfig
    runtime: Runtime
    broadcasts: dict[int, BroadcastManager]
    vss: dict[int, VSSManager]
    adversary: Adversary = field(default_factory=no_adversary)

    @property
    def trace(self) -> Trace:
        return self.runtime.trace

    def nonfaulty(self) -> list[int]:
        return self.adversary.nonfaulty_pids(self.config)


def build_stack(
    config: SystemConfig,
    scheduler: Scheduler | None = None,
    adversary: Adversary | None = None,
    with_vss: bool = True,
) -> Stack:
    """Assemble runtime, broadcast and (optionally) VSS for every process.

    The transport aggregates, with no option beside it: a step's sends
    sharing a (src, dst) pair travel as one envelope (:mod:`repro.sim.runtime`)
    and the coin's per-slot MW-SVSS sessions as one ``("svec", ...)``
    message per (step, dealer-group) (:mod:`repro.core.vectormux`).
    Per-message scheduling is the adversary's to ask for:
    :class:`~repro.adversary.schedulers.EnvelopeSplittingScheduler` keeps
    the step window from buffering,
    :class:`~repro.adversary.schedulers.SlotSplittingScheduler` any mux
    from packing; both together are the paper's literal per-message wire.
    """
    runtime = Runtime(config, scheduler=scheduler)
    broadcasts = {}
    vss = {}
    for pid in config.pids:
        host = runtime.host(pid)
        broadcasts[pid] = BroadcastManager(host)
        if with_vss:
            vss[pid] = VSSManager(host, broadcasts[pid])
    stack = Stack(
        config=config,
        runtime=runtime,
        broadcasts=broadcasts,
        vss=vss,
        adversary=adversary or no_adversary(),
    )
    stack.adversary.install(runtime)
    return stack


def build_node_modules(host) -> tuple[BroadcastManager, VSSManager]:
    """Per-host protocol substrate: ``(BroadcastManager, VSSManager)``.

    The transport-parametrized half of :func:`build_stack`, for any
    :class:`~repro.sim.module.HostABC` host; a socket node calls it once
    (one OS process, one host).  A node always gets both: an idle VSS
    manager sends nothing.
    """
    broadcast = BroadcastManager(host)
    return broadcast, VSSManager(host, broadcast)


def make_node_coin(
    host, coin: CoinSpec, instance: object = DEFAULT_INSTANCE
) -> CoinSource:
    """One process' coin source, transport-agnostic.

    The per-host core of :func:`make_coins` for the coin kinds that need
    no cross-process oracle: ``"svss"`` (the paper's shunning common
    coin: the host's one :class:`CommonCoinModule`, on the broadcast and
    VSS modules the host carries) and ``"local"`` (the private-coin
    baseline; :func:`make_coins` derives its streams here, so a network
    run and a simulated run on the same config draw identical bits).
    """
    config = host.runtime.config
    if coin == "svss":
        if not host.has_module("vss"):
            raise ConfigurationError("svss coin requires this host's vss module")
        config.require_optimal_resilience()
        if host.has_module("coin"):
            return host.module("coin")
        return CommonCoinModule(host, host.module("vss"), host.module("broadcast"))
    if coin == "local":
        tags = (
            ("local-coin", host.pid)
            if instance == DEFAULT_INSTANCE
            else ("local-coin", instance, host.pid)
        )
        return LocalCoin(config.derive_rng(*tags))
    raise ConfigurationError(
        f"coin spec {coin!r} cannot be built per-node; use make_coins "
        "on a simulated stack (ideal coins need a shared oracle)"
    )


def make_coins(stack: Stack, coin: CoinSpec) -> dict[int, CoinSource]:
    """Build (or reuse) the pid-keyed coin sources of one stack.

    The ``"svss"`` coin is substrate: one :class:`CommonCoinModule` per
    process serves every instance (sessions are keyed by coin session id,
    which embeds the instance).  Seeded stand-ins (``"local"``, ideal)
    draw the default instance's streams; a batch shares them across its
    instances through one :class:`SharedCoinGate` per process.
    """
    config = stack.config
    coins: dict[int, CoinSource] = {}
    kind = coin_kind(coin)
    if kind == "node":
        for pid in config.pids:
            coins[pid] = make_node_coin(stack.runtime.host(pid), coin)
    elif kind == "ideal":
        oracle = IdealCoinOracle(config.derive_rng("ideal-coin"), agreement=coin[1])
        for pid in config.pids:
            coins[pid] = IdealCoin(oracle, pid)
    else:
        for pid in config.pids:
            coins[pid] = coin(stack, pid)
    return coins


# ---------------------------------------------------------------------------
# Byzantine agreement
# ---------------------------------------------------------------------------


@dataclass(kw_only=True)
class RunCounters:
    """Runtime counters of one run, declared once for every result class.

    Always recorded, like the :class:`~repro.sim.tracing.Trace` beside
    them; results take them as one :func:`run_counters` snapshot when the
    run ends, and sweeps read them from the result (:meth:`counters`),
    never from the ``Runtime``.
    """

    #: Events delivered, messages pushed onto the wire, and how often the
    #: completion predicate was evaluated (O(state changes): the runners
    #: wait with ``on_change=True``).  ``messages_pushed`` counts *wire
    #: events* (an envelope is one);
    #: ``envelopes_pushed``/``payloads_coalesced`` size the saving and
    #: ``trace.total_messages`` keeps the logical count.
    events_dispatched: int = 0
    messages_pushed: int = 0
    predicate_evals: int = 0
    envelopes_pushed: int = 0
    payloads_coalesced: int = 0
    #: Session-vector aggregation: ``("svec", ...)`` messages emitted and
    #: the per-slot messages folded into them.
    svec_packed: int = 0
    svec_slots: int = 0
    #: Vector ingestion: vectors consumed, slots resolved by a group-level
    #: DMM verdict, slots that fell back to per-slot verdicts, and total
    #: DMM verdict computations.
    svec_batch_ingested: int = 0
    dmm_verdicts_batched: int = 0
    dmm_verdict_fallbacks: int = 0
    dmm_verdict_calls: int = 0
    #: Read-only probe shim, not a field: ``benchmarks/e2e/worker.py:326``
    #: and ``:352`` / ``:441`` read it off every result.  The algebra is
    #: always the pure rows; ROADMAP 6(a) deletes this.
    algebra_backend: ClassVar[str] = "pure"

    @property
    def logical_messages(self) -> int:
        """Logical protocol messages pushed onto the wire (envelope
        framing removed: an envelope counts as its payloads; a slot-vector
        counts as ONE logical message — semantic aggregation is exactly
        what shrinks this number)."""
        return self.messages_pushed - self.envelopes_pushed + self.payloads_coalesced

    def counters(self) -> dict:
        """Every declared counter by name — what another ``RunCounters``
        subclass takes as keywords (``logical_messages`` is derived)."""
        return {f.name: getattr(self, f.name) for f in fields(RunCounters)}


def run_counters(runtime: Runtime) -> dict:
    """Snapshot of ``runtime``'s counters, keyed like :class:`RunCounters`."""
    counters = {
        f.name: getattr(runtime, f.name)
        for f in fields(RunCounters)
        if f.name != "messages_pushed"
    }
    counters["messages_pushed"] = runtime.queue.pushed_total
    return counters


@dataclass
class AgreementResult(RunCounters):
    """Outcome of one agreement run."""

    config: SystemConfig
    decisions: dict[int, int]
    rounds: dict[int, int]
    nonfaulty: list[int]
    sim_time: float
    trace: Trace
    terminated: bool
    adversary_description: str = "none"

    @property
    def agreed(self) -> bool:
        """All nonfaulty processes decided, on the same value."""
        if not self.terminated:
            return False
        values = {self.decisions[p] for p in self.nonfaulty}
        return len(values) == 1

    @property
    def decision(self) -> int | None:
        values = {v for p, v in self.decisions.items() if p in self.nonfaulty}
        return next(iter(values)) if len(values) == 1 else None

    @property
    def max_rounds(self) -> int:
        return max(self.rounds.values(), default=0)

    @property
    def decided_instances(self) -> int:
        """1 if this agreement succeeded (a solo run is a batch of one)."""
        return int(self.agreed)

    @property
    def shun_pairs(self) -> set[tuple[int, int]]:
        return self.trace.shun_pairs()


def _wait(stack: Stack, predicate: Callable[[], bool], max_events: int) -> bool:
    """Run ``stack`` until ``predicate`` holds; False if it quiesced first.
    Every runner's predicate is over state its modules announce via
    ``notify()``, so it is re-evaluated on change only."""
    try:
        stack.runtime.run_until(predicate, max_events=max_events, on_change=True)
        return True
    except DeadlockError:
        return False


def normalize_inputs(
    inputs: list[int] | dict[int, int], config: SystemConfig
) -> dict[int, int]:
    """``inputs`` as a pid-keyed map naming exactly ``config.pids``."""
    if isinstance(inputs, dict):
        if set(inputs) != set(config.pids):
            raise ConfigurationError(
                f"inputs must name exactly pids 1..{config.n}, "
                f"got {sorted(inputs, key=repr)}"
            )
        return dict(inputs)
    if len(inputs) != config.n:
        raise ConfigurationError(f"need {config.n} inputs, got {len(inputs)}")
    return {pid: inputs[pid - 1] for pid in config.pids}


class AgreementDriver:
    """The one agreement driver: builds, starts and watches instances on
    ``hosts`` (a simulated stack's, a socket cluster's live nodes', a
    launch child's own); the simulator waits on :meth:`finished` with
    ``run_until``, sockets with their context's ``wait_for``.

    ``inputs`` maps instance -> pid -> input; a host the map does not name
    runs no process (a rejoined launch child adopts through its
    :class:`~repro.core.agreement.DecisionEcho` instead).  ``make`` builds a
    process as ``ABAProcess`` does, on ``coins[instance][pid]``.  All start
    in one coalescing step per runtime, source-major, so each host's
    round-1 votes leave as one envelope per destination.  ``decisions``
    keeps each pid's first decision (an echo adoption is one in round 0),
    and ``on_decision`` sees each with :meth:`decide`'s arguments.
    """

    def __init__(
        self,
        hosts: list,
        inputs: dict[object, dict[int, int]],
        coins: dict[object, dict[int, CoinSource]],
        max_rounds: float = float("inf"),
        targets: "list[int] | Callable[[], list[int]] | None" = None,
        on_decision: Callable[[object, int, int, int], None] | None = None,
        make: Callable[..., object] = ABAProcess,
    ):
        self.max_rounds = max_rounds
        self.on_decision = on_decision
        targets = [host.pid for host in hosts] if targets is None else targets
        self._refresh = targets if callable(targets) else None
        self.targets = targets() if self._refresh else targets
        self.decisions = {iid: {} for iid in inputs}
        self.processes = {iid: {} for iid in inputs}
        self._echoes = {host.pid: DecisionEcho.of(host) for host in hosts}
        for echo in self._echoes.values():
            echo.on_adopt = self.decide
        entered = self._entered
        for iid, row in inputs.items():
            for host in hosts:
                if host.pid in row:
                    process = self.processes[iid][host.pid] = make(
                        host, host.module("broadcast"), coins[iid][host.pid],
                        iid, partial(self.decide, iid, host.pid),
                    )
                    process.on_round = entered
        if hosts[0].runtime.monitor is not None:
            for iid, row in inputs.items():
                hosts[0].runtime.monitor.expect_inputs(iid, row)
        self._recount()
        for runtime, group in groupby(hosts, lambda host: host.runtime):
            with runtime.coalescing_step():
                for host in group:
                    for iid, row in inputs.items():
                        if host.pid in row:
                            self.processes[iid][host.pid].start(row[host.pid])

    def decide(self, iid: object, pid: int, value: int, rnd: int | None = None) -> None:
        """Record ``pid``'s decision of ``iid`` in round ``rnd`` (its
        process' decision round by default); its first one stands."""
        decided = self.decisions.get(iid)
        if decided is None or pid in decided:
            return
        decided[pid] = value
        self._echoes[pid].hold(iid, value)
        if self.on_decision is not None:
            rnd = self.processes[iid][pid].decide_round if rnd is None else rnd
            self.on_decision(iid, pid, value, rnd)
        if pid in self._members and iid in self._open:
            self._open[iid] -= 1
            if not self._open[iid]:
                del self._open[iid]

    def _entered(self, process, r: int) -> None:
        if r > self.max_rounds and process.pid in self._members:
            self._open.pop(process.instance_id, None)

    def _recount(self) -> None:
        """Instance -> undecided targets, for instances not yet done."""
        members = self._members = set(self.targets)
        self._open = {}
        for iid, decided in self.decisions.items():
            count = len(members - decided.keys())
            rounds = (p.round for pid, p in self.processes[iid].items() if pid in members)
            if count and max(rounds, default=0) <= self.max_rounds:
                self._open[iid] = count

    def finished(self) -> bool:
        """Every instance has every target decided, or a target past
        ``max_rounds``: counted per decision and round entry, recounted only
        when ``targets`` changes (a callable is re-read at every evaluation:
        an adaptive adversary shrinks the nonfaulty set mid-run)."""
        if self._refresh is not None:
            targets = self._refresh()
            if targets != self.targets:
                self.targets = targets
                self._recount()
        return not self._open


def _drive_agreements(
    stack: Stack,
    inputs: dict[object, list[int] | dict[int, int]],
    coins: dict[object, dict[int, CoinSource]],
    max_rounds: int,
    max_events: int,
    monitor: InvariantMonitor | None = None,
    make: Callable[..., object] = ABAProcess,
) -> dict[object, AgreementResult]:
    """Run one agreement per entry of ``inputs`` (instance id -> inputs) on
    ``stack`` through an :class:`AgreementDriver` until every nonfaulty
    process decided.  The results share the stack's trace and clock and
    carry zero run counters: the caller snapshots :func:`run_counters`."""
    config = stack.config
    runtime = stack.runtime
    input_maps = {iid: normalize_inputs(row, config) for iid, row in inputs.items()}
    if monitor is not None:
        monitor.install(runtime)
    adaptive = getattr(stack.adversary, "adaptive", False)
    driver = AgreementDriver(
        [runtime.host(pid) for pid in config.pids], input_maps, coins, max_rounds,
        targets=stack.nonfaulty if adaptive else stack.nonfaulty(), make=make,
    )
    _wait(stack, driver.finished, max_events)
    nonfaulty = stack.nonfaulty()  # what an adaptive adversary left of it
    return {
        iid: AgreementResult(
            config=config,
            decisions=decided,
            rounds={pid: driver.processes[iid][pid].rounds_used for pid in nonfaulty},
            nonfaulty=nonfaulty,
            sim_time=runtime.now,
            trace=stack.trace,
            terminated=all(pid in decided for pid in nonfaulty),
            adversary_description=stack.adversary.describe(),
        )
        for iid, decided in driver.decisions.items()
    }


def run_byzantine_agreement(
    inputs: list[int] | dict[int, int],
    config: SystemConfig,
    coin: CoinSpec = "svss",
    adversary: Adversary | None = None,
    scheduler: Scheduler | None = None,
    max_rounds: int = 200,
    max_events: int = DEFAULT_MAX_EVENTS,
    monitor: InvariantMonitor | None = None,
) -> AgreementResult:
    """Run one asynchronous Byzantine agreement to completion.

    ``inputs`` is a pid-keyed dict or a list indexed ``pid - 1``.  The run
    stops when every nonfaulty process decided, or when some process
    exceeds ``max_rounds`` (used by the non-termination experiments —
    the paper's protocol never hits it).

    ``monitor`` installs a :class:`~repro.sim.monitor.InvariantMonitor` on
    the runtime before the run starts; invariant violations propagate out
    of this call as :class:`~repro.sim.monitor.InvariantViolation`.  An
    adaptive adversary (:class:`repro.adversary.adaptive.AdaptiveAdversary`)
    shrinks the nonfaulty set mid-run: the run waits on, and the result
    reports, what it left (:class:`AgreementDriver`).
    """
    stack = build_stack(
        config, scheduler=scheduler, adversary=adversary, with_vss=coin == "svss"
    )
    results = _drive_agreements(
        stack, {DEFAULT_INSTANCE: inputs},
        {DEFAULT_INSTANCE: make_coins(stack, coin)},
        max_rounds, max_events, monitor,
    )
    return replace(results[DEFAULT_INSTANCE], **run_counters(stack.runtime))


# ---------------------------------------------------------------------------
# Batched Byzantine agreement: K concurrent instances on one runtime
# ---------------------------------------------------------------------------


@dataclass
class BatchAgreementResult(RunCounters):
    """Outcome of ``K`` concurrent agreement instances on one runtime.

    Per-instance outcomes live in ``results`` (ordinary
    :class:`AgreementResult` objects sharing the batch's trace and clock;
    their run counters are zero — the aggregate counters live here, since
    one event loop served every instance).
    """

    config: SystemConfig
    instance_ids: tuple
    results: dict[object, AgreementResult]
    sim_time: float
    trace: Trace
    terminated: bool
    adversary_description: str = "none"

    def __len__(self) -> int:
        return len(self.instance_ids)

    def result(self, instance_id: object) -> AgreementResult:
        return self.results[instance_id]

    @property
    def agreed(self) -> bool:
        """Every instance terminated with all nonfaulty processes agreeing."""
        return all(r.agreed for r in self.results.values())

    @property
    def decisions(self) -> dict[object, int | None]:
        """instance id -> unanimous nonfaulty decision (None if not agreed)."""
        return {iid: r.decision for iid, r in self.results.items()}

    @property
    def decision(self) -> int | None:
        """The value every instance decided, or None if they differ."""
        values = set(self.decisions.values())
        return next(iter(values)) if len(values) == 1 else None

    @property
    def max_rounds(self) -> int:
        return max((r.max_rounds for r in self.results.values()), default=0)

    @property
    def decided_instances(self) -> int:
        return sum(1 for r in self.results.values() if r.agreed)


def run_byzantine_agreement_batch(
    inputs_matrix: Sequence[list[int] | dict[int, int]],
    config: SystemConfig,
    coin: CoinSpec = "svss",
    adversary: Adversary | None = None,
    scheduler: Scheduler | None = None,
    max_rounds: int = 200,
    max_events: int = DEFAULT_MAX_EVENTS,
    monitor: InvariantMonitor | None = None,
) -> BatchAgreementResult:
    """Run ``K = len(inputs_matrix)`` concurrent agreements on one runtime.

    Every instance gets independent inputs (one row of ``inputs_matrix``)
    but shares the broadcast/VSS substrate, the event loop, and one
    common-coin invocation per round across the whole batch (the
    Wang-style amortization: with the paper's SVSS coin, whose single
    invocation costs ``Θ(n²)`` sharings, the coin bill of a ``K``-batch is
    paid once instead of ``K`` times).  The shared round
    coin is revealed only after every live local instance fixed its
    round position (see :class:`~repro.core.coin.SharedCoinGate`).

    Determinism: under a fixed-delay scheduler, a failure-free batch is an
    order-preserving interleaving of its instances' solo event streams, and
    the shared coin sessions carry the same ids a solo run uses — so
    instance ``k`` decides exactly what
    ``run_byzantine_agreement(inputs_matrix[k], config, ...)`` decides
    (the multi-instance A/B test asserts this per seed).  The instances
    advance in lock-step, so their votes for one (round, phase) ride one
    ``("abav", ...)`` vector per origin
    (:class:`~repro.core.agreement.VoteVectorMux`): only the event bill
    shrinks (``benchmarks/bench_batch.py``).
    """
    rows = list(inputs_matrix)
    if not rows:
        raise ConfigurationError("inputs_matrix must contain at least one row")
    instance_ids = tuple((DEFAULT_INSTANCE, k) for k in range(len(rows)))
    stack = build_stack(
        config, scheduler=scheduler, adversary=adversary, with_vss=coin == "svss"
    )
    # One underlying coin per process, sessions keyed like a solo run; one
    # gate per process shared by its K instance frontends, which consult
    # the gate, never the raw coin.
    base = make_coins(stack, coin)
    gates = {
        pid: SharedCoinGate(base[pid], len(instance_ids)) for pid in config.pids
    }
    results = _drive_agreements(
        stack, dict(zip(instance_ids, rows)), dict.fromkeys(instance_ids, gates),
        max_rounds, max_events, monitor,
    )
    return BatchAgreementResult(
        config=config,
        instance_ids=instance_ids,
        results=results,
        sim_time=stack.runtime.now,
        trace=stack.trace,
        terminated=all(r.terminated for r in results.values()),
        adversary_description=stack.adversary.describe(),
        **run_counters(stack.runtime),
    )


# ---------------------------------------------------------------------------
# One-shot VSS runs (tests, benchmarks, examples)
# ---------------------------------------------------------------------------


@dataclass
class VSSResult:
    """Outcome of one share(+reconstruct) session."""

    config: SystemConfig
    session: tuple
    share_completed: set[int]
    outputs: dict[int, object]
    sim_time: float
    trace: Trace

    def output_values(self, pids: list[int] | None = None) -> set[object]:
        pids = pids if pids is not None else list(self.outputs)
        return {self.outputs[p] for p in pids if p in self.outputs}


def _run_sharing(
    config: SystemConfig,
    kind: str,
    tag: object,
    sid: tuple,
    parties: tuple[int, ...],
    deal: Callable[[Stack], None],
    adversary: Adversary | None,
    scheduler: Scheduler | None,
    reconstruct: bool,
    max_events: int,
) -> tuple[VSSResult, Stack]:
    """Share one standalone session, then optionally reconstruct it.

    ``kind`` is ``"mw"`` or ``"svss"``: it names the watcher callbacks
    (``on_<kind>_share_complete`` / ``on_<kind>_output``) and the
    manager's ``<kind>_begin_reconstruct``.  ``parties`` are the pids
    ``sid`` names (dealer, moderator); ``deal(stack)`` opens the session.
    """
    for pid in parties:
        if pid not in config.pids:
            raise ConfigurationError(
                f"session {sid!r} names process {pid}, not one of 1..{config.n}"
            )
    stack = build_stack(config, scheduler=scheduler, adversary=adversary)
    completed: set[int] = set()
    outputs: dict[int, object] = {}
    for pid in config.pids:
        callbacks = {
            f"on_{kind}_share_complete": lambda s, pid=pid: completed.add(pid),
            f"on_{kind}_output": lambda s, v, pid=pid: outputs.setdefault(pid, v),
        }
        stack.vss[pid].register_watcher(tag, CallbackWatcher(**callbacks))
    deal(stack)
    nonfaulty = set(stack.nonfaulty())
    if _wait(stack, lambda: nonfaulty <= completed, max_events) and reconstruct:
        for pid in config.pids:
            # Corrupt processes participate too (their behaviours lie
            # through the protocol); skip any that cannot legally start.
            try:
                getattr(stack.vss[pid], f"{kind}_begin_reconstruct")(sid)
            except ProtocolError:
                continue
        _wait(stack, lambda: nonfaulty <= set(outputs), max_events)
    result = VSSResult(
        config=config,
        session=sid,
        share_completed=completed,
        outputs=outputs,
        sim_time=stack.runtime.now,
        trace=stack.trace,
    )
    return result, stack


def run_mwsvss(
    config: SystemConfig,
    dealer: int,
    moderator: int,
    secret: int,
    moderator_value: int | None = None,
    adversary: Adversary | None = None,
    scheduler: Scheduler | None = None,
    reconstruct: bool = True,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> tuple[VSSResult, Stack]:
    """Run one standalone MW-SVSS session (share, then optionally R')."""
    tag = ("solo", 0)
    sid = mw_session(tag, dealer, moderator, "dm")
    expected = secret if moderator_value is None else moderator_value

    def deal(stack: Stack) -> None:
        stack.vss[dealer].mw_share(sid, secret)
        stack.vss[moderator].mw_moderate(sid, expected)

    return _run_sharing(
        config, "mw", tag, sid, (dealer, moderator), deal,
        adversary, scheduler, reconstruct, max_events,
    )


def run_svss(
    config: SystemConfig,
    dealer: int,
    secret: int,
    adversary: Adversary | None = None,
    scheduler: Scheduler | None = None,
    reconstruct: bool = True,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> tuple[VSSResult, Stack]:
    """Run one standalone SVSS session (share, then optionally R)."""
    tag = ("solo-svss", 0)
    sid = svss_session(tag, dealer)
    return _run_sharing(
        config, "svss", tag, sid, (dealer,),
        lambda stack: stack.vss[dealer].svss_share(sid, secret),
        adversary, scheduler, reconstruct, max_events,
    )


@dataclass
class CoinResult(RunCounters):
    """Outcome of one common-coin invocation."""

    config: SystemConfig
    outputs: dict[int, int]
    sim_time: float
    trace: Trace

    def unanimous(self, pids: list[int]) -> bool:
        return len({self.outputs[p] for p in pids if p in self.outputs}) == 1


def flip_common_coin(
    config: SystemConfig,
    adversary: Adversary | None = None,
    scheduler: Scheduler | None = None,
    session: int = 0,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> tuple[CoinResult, Stack]:
    """Run one full SVSS-based shunning common coin invocation."""
    config.require_optimal_resilience()
    stack = build_stack(config, scheduler=scheduler, adversary=adversary)
    coins = make_coins(stack, "svss")
    csid = ("cc", "solo", session)
    outputs: dict[int, int] = {}
    # Source-major joins in one coalescing step: each dealer's n share
    # batches leave as one envelope per recipient.
    with stack.runtime.coalescing_step():
        for pid in config.pids:
            coins[pid].join(csid)
            coins[pid].get(csid, lambda v, pid=pid: outputs.setdefault(pid, v))
            coins[pid].release(csid)
    nonfaulty = set(stack.nonfaulty())
    _wait(stack, lambda: nonfaulty <= set(outputs), max_events)
    result = CoinResult(
        config=config,
        outputs=outputs,
        sim_time=stack.runtime.now,
        trace=stack.trace,
        **run_counters(stack.runtime),
    )
    return result, stack


__all__ = [
    "AgreementResult",
    "BOTTOM",
    "BatchAgreementResult",
    "CoinResult",
    "DEFAULT_INSTANCE",
    "RunCounters",
    "Stack",
    "VSSResult",
    "build_node_modules",
    "build_stack",
    "flip_common_coin",
    "make_coins",
    "make_node_coin",
    "normalize_inputs",
    "run_byzantine_agreement",
    "run_byzantine_agreement_batch",
    "run_counters",
    "run_mwsvss",
    "run_svss",
]
