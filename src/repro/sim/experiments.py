"""Parallel experiment harness: scenario matrices over worker processes.

The paper's claims are statistical (almost-sure termination, expected
round counts, polynomial message complexity), so reproducing them means
*sweeps*: the same protocol under hundreds to thousands of seeded
``(n, scheduler, adversary, seed)`` combinations.  This module makes such
a sweep a one-call workload::

    from repro.sim.experiments import scenario_matrix, run_matrix

    sweep = run_matrix(
        scenario_matrix(
            ns=(4, 7), schedulers=("fifo", "uniform"),
            adversaries=("none", "silent-one"), seeds=range(100),
        ),
        workers=8,
    )
    print(sweep.table())
    print(sweep.agreement_rate, sweep.summary("total_messages"))

Design constraints, and how they are met:

* **Picklable work units** — a :class:`Scenario` is plain data (ints,
  strings, tuples); schedulers and adversaries are rebuilt inside the
  worker from the :data:`SCHEDULERS` / :data:`ADVERSARIES` registries, so
  the matrix crosses process boundaries without serializing protocol
  objects.
* **Determinism** — every random stream is derived from the scenario's
  seed (the registries use ``config.derive_rng`` with fixed tags), and
  records are returned in matrix order, so a sweep's aggregate is a pure
  function of its scenario list no matter how many workers ran it.
* **Aggregation** — :class:`SweepResult` feeds
  :mod:`repro.analysis.stats` summaries and Wilson intervals, and renders
  the same ASCII tables the benchmarks print.
* **Monitored sweeps** — ``monitor=True`` arms an invariant monitor on
  every run and records a violation on its :class:`RunRecord`, never
  raising it, so an adversary x scheduler sweep lists every failing run in
  :attr:`SweepResult.violations` (expected empty: the paper's safety
  claims hold under every adversary and schedule).
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from multiprocessing import get_context

from repro.adversary.adaptive import AdaptiveAdversary
from repro.adversary.controller import (
    Adversary,
    crash_adversary,
    crash_recovery_adversary,
    random_adversary,
    silent_adversary,
    slot_poison_adversary,
)
from repro.adversary.schedulers import (
    CoinRevealEclipseScheduler,
    EnvelopeSplittingScheduler,
    SlotSplittingScheduler,
    VoteBalancingScheduler,
    per_message,
)
from repro.analysis.stats import Summary, proportion_ci95, summarize
from repro.analysis.tables import render_table
from repro.config import SystemConfig
from repro.core.api import (
    RunCounters,
    run_byzantine_agreement,
    run_byzantine_agreement_batch,
)
from repro.core.coin import coin_kind
from repro.errors import ConfigurationError
from repro.sim.monitor import InvariantMonitor, InvariantViolation
from repro.sim.runtime import DEFAULT_MAX_EVENTS
from repro.sim.scheduler import (
    ExponentialDelayScheduler,
    FifoScheduler,
    IntermittentPartitionScheduler,
    Scheduler,
    TargetedDelayScheduler,
    UniformDelayScheduler,
)

#: Scheduler registry: name -> factory(config).  Randomized schedulers use
#: the same ``derive_rng("scheduler")`` stream as ``default_scheduler``, so
#: ``"uniform"`` reproduces a run that picked no scheduler at all.
SCHEDULERS: dict[str, Callable[[SystemConfig], Scheduler]] = {
    "unit": lambda cfg: Scheduler(),
    "fifo": lambda cfg: FifoScheduler(),
    "uniform": lambda cfg: UniformDelayScheduler(cfg.derive_rng("scheduler")),
    "exponential": lambda cfg: ExponentialDelayScheduler(
        cfg.derive_rng("scheduler")
    ),
    "targeted": lambda cfg: TargetedDelayScheduler(
        UniformDelayScheduler(cfg.derive_rng("scheduler")), victims={cfg.n}
    ),
    "partition": lambda cfg: IntermittentPartitionScheduler(
        UniformDelayScheduler(cfg.derive_rng("scheduler")),
        group=frozenset(range(1, cfg.n // 2 + 1)),
    ),
    "vote-balancing": lambda cfg: VoteBalancingScheduler(cfg),
    "env-split": lambda cfg: EnvelopeSplittingScheduler(
        UniformDelayScheduler(cfg.derive_rng("scheduler"))
    ),
    "slot-split": lambda cfg: SlotSplittingScheduler(
        UniformDelayScheduler(cfg.derive_rng("scheduler"))
    ),
    # Both vetoes over ``uniform``: one scheduled event per logical message
    # and one message per session — the paper's literal wire.
    "per-message": lambda cfg: per_message(
        UniformDelayScheduler(cfg.derive_rng("scheduler"))
    ),
    # Eclipse the top-t pids (a legal minority; at t=0 an empty victim set,
    # so the wrapper degenerates to its uniform base).
    "eclipse": lambda cfg: CoinRevealEclipseScheduler(
        UniformDelayScheduler(cfg.derive_rng("scheduler")),
        victims=frozenset(range(cfg.n - cfg.t + 1, cfg.n + 1)),
    ),
}

#: Adversary registry: name -> factory(config) -> Adversary | None.
#: Seeded entries draw from ``derive_rng("experiment-adversary")`` so every
#: corruption replays from the scenario seed; ``t == 0`` configs get None
#: (nothing is corruptible) rather than an invalid adversary.
ADVERSARIES: dict[str, Callable[[SystemConfig], Adversary | None]] = {
    "none": lambda cfg: None,
    "crash-one": lambda cfg: crash_adversary([cfg.n]) if cfg.t else None,
    "silent-one": lambda cfg: silent_adversary([cfg.n]) if cfg.t else None,
    "random": lambda cfg: random_adversary(
        cfg, cfg.derive_rng("experiment-adversary")
    ),
    "adaptive-crash": lambda cfg: (
        AdaptiveAdversary(
            cfg, cfg.derive_rng("experiment-adversary"), kind="crash"
        )
        if cfg.t
        else None
    ),
    "adaptive-mutate": lambda cfg: (
        AdaptiveAdversary(
            cfg, cfg.derive_rng("experiment-adversary"), kind="mutator"
        )
        if cfg.t
        else None
    ),
    "slot-poison": lambda cfg: (
        slot_poison_adversary([cfg.n], cfg.derive_rng("experiment-adversary"))
        if cfg.t
        else None
    ),
    "crash-recover": lambda cfg: (
        crash_recovery_adversary([cfg.n]) if cfg.t else None
    ),
}

#: Input-pattern registry: name -> factory(config) -> list of bits.
INPUT_PATTERNS: dict[str, Callable[[SystemConfig], list[int]]] = {
    "split": lambda cfg: [i % 2 for i in range(cfg.n)],
    "ones": lambda cfg: [1] * cfg.n,
    "zeros": lambda cfg: [0] * cfg.n,
    "random": lambda cfg: [
        cfg.derive_rng("experiment-inputs").randrange(2) for _ in range(cfg.n)
    ],
}


@dataclass(frozen=True)
class Scenario:
    """One seeded agreement run, described entirely by plain data.

    ``batch > 1`` turns the scenario into a *batched* run:
    :func:`~repro.core.api.run_byzantine_agreement_batch` drives ``batch``
    concurrent instances (inputs per instance derived from the input
    pattern — rotated per instance, or independently seeded for
    ``"random"``) on one runtime with a shared round coin, and the record
    aggregates across instances.

    The transport always aggregates (envelopes, session vectors, vote
    vectors — records carry the packing counters); the ``scheduler`` axis
    is how a scenario asks for less: ``"env-split"``, ``"slot-split"`` and
    ``"per-message"`` wrap ``"uniform"`` in the splitting schedulers.
    """

    n: int
    seed: int
    scheduler: str = "uniform"
    adversary: str = "none"
    coin: object = ("ideal", 1.0)  # "svss" | "local" | ("ideal", p)
    inputs: str = "split"
    max_rounds: int = 200
    max_events: int = DEFAULT_MAX_EVENTS
    batch: int = 1
    #: Install an :class:`~repro.sim.monitor.InvariantMonitor` on the run;
    #: any violation is caught and recorded on the RunRecord (a worker
    #: never tears down its pool on a violation).  ``round_bound`` arms the
    #: monitor's liveness watchdog.
    monitor: bool = False
    round_bound: int | None = None

    def validate(self) -> None:
        if self.batch < 1:
            raise ConfigurationError(
                f"batch must be >= 1, got {self.batch}"
            )
        if self.scheduler not in SCHEDULERS:
            raise ConfigurationError(
                f"unknown scheduler {self.scheduler!r}; "
                f"known: {sorted(SCHEDULERS)}"
            )
        if self.adversary not in ADVERSARIES:
            raise ConfigurationError(
                f"unknown adversary {self.adversary!r}; "
                f"known: {sorted(ADVERSARIES)}"
            )
        if self.inputs not in INPUT_PATTERNS:
            raise ConfigurationError(
                f"unknown input pattern {self.inputs!r}; "
                f"known: {sorted(INPUT_PATTERNS)}"
            )
        coin_kind(self.coin)


@dataclass
class RunRecord(RunCounters):
    """Measured outcome of one scenario.

    For batched scenarios the outcome aggregates across instances:
    ``agreed``/``terminated`` require every instance to succeed,
    ``decision`` is the value only if all instances decided it, ``rounds``
    is the maximum, and ``decided_instances``/``decisions_per_wall_second``
    carry the batch throughput.  The run counters are the result's
    (:class:`repro.core.api.RunCounters`, documented there), so sweeps
    read them without reaching into the ``Runtime``.
    """

    scenario: Scenario
    agreed: bool
    terminated: bool
    decision: int | None
    rounds: int
    sim_time: float
    total_messages: int
    shun_pairs: int
    wall_seconds: float
    decided_instances: int = 1
    #: What actually corrupted whom: the adversary's picklable ``spec``
    #: tuple, read *after* the run (adaptive adversaries only fix their
    #: victims at strike time).  None when the factory returned no
    #: adversary for this config.
    adversary_spec: tuple | None = None
    #: Invariant-monitor outcome: ``monitored`` says a monitor watched the
    #: run; ``invariant_violation`` carries ``"[kind] message"`` when it
    #: fired (the run is then recorded as failed, never re-raised across
    #: the pool); the coin tallies come from the monitor's verdict.
    monitored: bool = False
    invariant_violation: str | None = None
    coin_agreed: int = 0
    coin_split: int = 0

    @property
    def decisions_per_wall_second(self) -> float:
        """Aggregate decision throughput of the run (the batching metric)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.decided_instances / self.wall_seconds


def scenario_matrix(
    ns: Iterable[int],
    schedulers: Iterable[str] = ("uniform",),
    adversaries: Iterable[str] = ("none",),
    seeds: Iterable[int] = range(10),
    **overrides: object,
) -> list[Scenario]:
    """The full cross product ``n x scheduler x adversary x seed``.

    ``overrides`` set the remaining :class:`Scenario` fields (``coin``,
    ``inputs``, ``max_rounds``, ...) uniformly across the matrix.
    """
    matrix = [
        Scenario(n=n, seed=seed, scheduler=s, adversary=a, **overrides)
        for n in ns
        for s in schedulers
        for a in adversaries
        for seed in seeds
    ]
    # Fail fast on registry typos, before any (possibly pooled) work
    # starts: validation is a handful of dict lookups per scenario.
    for scenario in matrix:
        scenario.validate()
    return matrix


def batch_inputs(scenario: Scenario, config: SystemConfig) -> list[list[int]]:
    """Independent per-instance inputs derived from the scenario pattern.

    Deterministic patterns are rotated one position per instance (so a
    ``"split"`` batch exercises every phase alignment); ``"random"`` draws
    a fresh seeded stream per instance.
    """
    rows = []
    for k in range(scenario.batch):
        if scenario.inputs == "random":
            rng = config.derive_rng("experiment-inputs", k)
            rows.append([rng.randrange(2) for _ in range(config.n)])
        else:
            base = INPUT_PATTERNS[scenario.inputs](config)
            shift = k % config.n
            rows.append(base[shift:] + base[:shift])
    return rows


def _monitor_fields(
    adversary: Adversary | None, monitor: InvariantMonitor | None
) -> dict[str, object]:
    """RunRecord fields shared by the success and violation paths."""
    fields: dict[str, object] = {
        "adversary_spec": (
            getattr(adversary, "spec", None) if adversary is not None else None
        ),
        "monitored": monitor is not None,
    }
    if monitor is not None:
        verdict = monitor.verdict()
        fields["coin_agreed"] = verdict["coin_agreed"]
        fields["coin_split"] = verdict["coin_split"]
    return fields


def run_scenario(scenario: Scenario) -> RunRecord:
    """Execute one scenario; the unit of work a pool worker runs."""
    scenario.validate()
    config = SystemConfig(n=scenario.n, seed=scenario.seed)
    adversary = ADVERSARIES[scenario.adversary](config)
    monitor = (
        InvariantMonitor(round_bound=scenario.round_bound)
        if scenario.monitor
        else None
    )
    options = dict(
        coin=scenario.coin,
        scheduler=SCHEDULERS[scenario.scheduler](config),
        adversary=adversary,
        max_rounds=scenario.max_rounds,
        max_events=scenario.max_events,
        monitor=monitor,
    )
    start = time.perf_counter()
    try:
        if scenario.batch > 1:
            result = run_byzantine_agreement_batch(
                batch_inputs(scenario, config),
                config,
                **options,
            )
        else:
            result = run_byzantine_agreement(
                INPUT_PATTERNS[scenario.inputs](config),
                config,
                **options,
            )
        wall = time.perf_counter() - start
        return RunRecord(
            scenario=scenario,
            agreed=result.agreed,
            terminated=result.terminated,
            decision=result.decision,
            rounds=result.max_rounds,
            sim_time=result.sim_time,
            total_messages=result.trace.total_messages,
            shun_pairs=len(result.trace.shun_pairs()),
            wall_seconds=wall,
            decided_instances=result.decided_instances,
            **result.counters(),
            **_monitor_fields(adversary, monitor),
        )
    except InvariantViolation as violation:
        # A violation is a *finding*, not a crash: record it as a failed
        # run so the sweep (and its pool workers) carry on, and
        # ``SweepResult.violations`` reports every violating run at once.
        wall = time.perf_counter() - start
        return RunRecord(
            scenario=scenario,
            agreed=False,
            terminated=False,
            decision=None,
            rounds=0,
            sim_time=0.0,
            total_messages=0,
            shun_pairs=0,
            wall_seconds=wall,
            decided_instances=0,
            invariant_violation=str(violation),
            **_monitor_fields(adversary, monitor),
        )


def run_matrix(
    scenarios: Sequence[Scenario],
    workers: int | None = None,
    chunksize: int | None = None,
) -> "SweepResult":
    """Run a scenario matrix, fanned across ``workers`` processes.

    ``workers=None`` uses the machine's CPU count (capped by the matrix
    size); ``workers<=1`` runs inline, which is what CI smoke mode and the
    worker-equivalence test use.  Records come back in matrix order
    either way, so aggregates are independent of the worker count.
    """
    scenarios = list(scenarios)
    if workers is None:
        workers = min(os.cpu_count() or 1, len(scenarios))
    if workers <= 1 or len(scenarios) <= 1:
        workers = 1
        records = [run_scenario(s) for s in scenarios]
    else:
        if chunksize is None:
            chunksize = max(1, len(scenarios) // (workers * 4))
        with get_context().Pool(processes=workers) as pool:
            records = pool.map(run_scenario, scenarios, chunksize=chunksize)
    return SweepResult(records=records, workers=workers)


@dataclass
class SweepResult:
    """All records of one sweep plus aggregation helpers."""

    records: list[RunRecord]
    workers: int = 1
    #: Dimensions the default table groups by.
    group_keys: tuple[str, ...] = field(default=("n", "scheduler", "adversary"))

    def __len__(self) -> int:
        return len(self.records)

    # -- aggregate measures --------------------------------------------------
    @property
    def agreement_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.agreed for r in self.records) / len(self.records)

    def agreement_ci95(self) -> tuple[float, float]:
        return proportion_ci95(
            sum(r.agreed for r in self.records), len(self.records)
        )

    @property
    def violations(self) -> list[RunRecord]:
        """Every record whose invariant monitor fired."""
        return [r for r in self.records if r.invariant_violation is not None]

    def summary(self, metric: str) -> Summary:
        """Mean/spread of one :class:`RunRecord` numeric field."""
        return summarize([float(getattr(r, metric)) for r in self.records])

    def group_by(self, *keys: str) -> dict[tuple, "SweepResult"]:
        """Split into sub-sweeps by :class:`Scenario` field values."""
        keys = keys or self.group_keys
        groups: dict[tuple, list[RunRecord]] = {}
        for record in self.records:
            key = tuple(getattr(record.scenario, k) for k in keys)
            groups.setdefault(key, []).append(record)
        try:
            # Natural order (numeric n before lexicographic schedulers);
            # falls back to string order for mixed-type key fields.
            ordered = sorted(groups.items(), key=lambda kv: kv[0])
        except TypeError:
            ordered = sorted(groups.items(), key=lambda kv: str(kv[0]))
        return {
            key: SweepResult(records=group, workers=self.workers)
            for key, group in ordered
        }

    # -- presentation --------------------------------------------------------
    def table(self, *keys: str, title: str = "Experiment sweep") -> str:
        keys = keys or self.group_keys
        rows = []
        for key, group in self.group_by(*keys).items():
            low, high = group.agreement_ci95()
            watched = any(r.monitored for r in group.records)
            rows.append(
                [
                    *key,
                    len(group),
                    f"{group.agreement_rate:.3f} [{low:.2f},{high:.2f}]",
                    f"{group.summary('rounds').mean:.2f}",
                    f"{group.summary('events_dispatched').mean:,.0f}",
                    f"{group.summary('total_messages').mean:,.0f}",
                    f"{group.summary('sim_time').mean:.1f}",
                    len(group.violations) if watched else "–",
                ]
            )
        note = f"{len(self.records)} runs, {self.workers} worker(s)"
        if any(r.monitored for r in self.records):
            bad = len(self.violations)
            note += f"; {bad} VIOLATION(S)" if bad else "; all invariants held"
        headers = ["runs", "agree rate [CI95]", "rounds", "events", "msgs", "sim t"]
        return render_table(title, [*keys, *headers, "violations"], rows, note=note)


__all__ = [
    "ADVERSARIES",
    "INPUT_PATTERNS",
    "RunRecord",
    "SCHEDULERS",
    "Scenario",
    "SweepResult",
    "batch_inputs",
    "run_matrix",
    "run_scenario",
    "scenario_matrix",
]
