"""Benchmark worker: one fresh interpreter that sets a workload up and runs
some of its operations, one at a time, through the public entry points.

``bench.py`` spawns ``python worker.py '<job json>'`` with a scrubbed
environment and reads one JSON document from stdout.  The worker never
passes ``engine=``, ``batch_ingest=`` or ``algebra_backend=`` (it measures the
default path) and passes the aggregation / trace keywords only while the
entry point's signature still has them (:func:`accepted_kwargs`).

The per-operation output checks live here, once, shared by timing and traced
runs: a check returns ``None`` or a one-line failure reason, and a failed
operation is reported, never dropped or retried.
"""

from __future__ import annotations

import asyncio
import gc
import inspect
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from random import Random

MAX_EVENTS = 30_000_000


def accepted_kwargs(fn, **optional) -> dict:
    """The subset of ``optional`` that ``fn``'s signature still accepts.

    Lets a later change fold a toggle (``svec=``, ``coalesce=``,
    ``trace_level=``...) into the only path without breaking the benchmark.
    """
    params = inspect.signature(fn).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return dict(optional)
    return {name: value for name, value in optional.items() if name in params}


def op_seed(base_seed: int, index: int) -> int:
    """Operation ``index`` of a run uses seed ``base_seed * 1000 + index``."""
    return base_seed * 1000 + index


def rotated_split_inputs(n: int, k: int) -> list[list[int]]:
    return [[(i + shift) % 2 for i in range(n)] for shift in range(k)]


def current_rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the host's speed, sampled while the operations run
# ---------------------------------------------------------------------------


def reference_kernel(rounds: int) -> int:
    """A fixed amount of pure-Python work shaped like the stack's hot loops
    (tuple keys, dict probes, small calls, list churn, modular arithmetic).

    It touches nothing of ``repro``, so its duration moves only with the
    host.  On a shared box the same operation takes up to 1.5x longer from
    one minute to the next; this kernel is what that slowdown is measured
    against."""
    table: dict = {}
    out: list = []
    prime = 2147483647

    def tally(key: tuple) -> int:
        count = table.get(key, 0) + 1
        table[key] = count
        return count

    acc = 1
    for i in range(rounds):
        key = (i % 1013, 2, (i % 7, i % 5))  # ints only: str hashes differ per process
        acc = (acc * 48271 + tally(key)) % prime
        payload = ("b3", key, acc)
        if isinstance(payload, tuple) and payload:
            out.append(payload[2] % 97)
        if len(out) > 64:
            del out[:32]
    return acc


class HostSpeedSampler:
    """Runs the reference kernel every ``interval_s`` *inside* the worker's
    own thread, from an interval-timer signal, while operations run.

    A sample taken before or after an 8-second operation says little about
    the host during it (the box's speed moves within seconds), so the
    samples are taken in flight: CPython runs the handler between two
    bytecodes of whatever the operation is executing, on the same core,
    through the same caches.  The time the handler spends is accumulated
    in :attr:`spent_wall` / :attr:`spent_cpu` and taken off the operation
    it interrupted.  No thread is involved.

    The cyclic collector is paused inside the handler: the kernel's
    garbage is acyclic, and a generational pass triggered by its
    allocations would walk the worker's whole heap (700 MB on the beacon),
    measuring the heap, not the host.
    """

    def __init__(self, interval_s: float, rounds: int):
        self.interval_s = interval_s
        self.rounds = rounds
        self.stamps: list[float] = []
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self.started = False

    def _tick(self, signum, frame) -> None:
        gc_was_enabled = gc.isenabled()
        gc.disable()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            reference_kernel(self.rounds)
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            if gc_was_enabled:
                gc.enable()
        self.stamps.append(wall0)
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.spent_wall += wall
        self.spent_cpu += cpu

    def start(self, interval_s: float | None = None) -> None:
        """Arm the timer (or re-arm it with another interval)."""
        interval_s = interval_s or self.interval_s
        if not self.started:
            reference_kernel(self.rounds)  # compile and cache before the first sample
            self.started = True
            signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)

    def stop(self) -> None:
        """Cancel the timer; operations shorter than one interval still get
        one sample, taken now."""
        if not self.started:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.started = False
        if not self.walls:
            self._tick(None, None)

    def kernel_during(self, start: float, end: float, pad_s: float = 2.0) -> tuple[float, float, int]:
        """(median wall, median cpu, sample count) of the kernel samples
        taken from ``pad_s`` before ``start`` to ``pad_s`` after ``end``
        (``perf_counter`` stamps); all samples when fewer than three fall
        in the window.  The padding gives a 0.2 s operation some forty
        samples around it; an 8 s operation is covered by its own."""
        window = [
            i for i, stamp in enumerate(self.stamps)
            if start - pad_s <= stamp <= end + pad_s
        ]
        if len(window) < 3:
            window = range(len(self.stamps))
        return (
            statistics.median(self.walls[i] for i in window),
            statistics.median(self.cpus[i] for i in window),
            len(window),
        )


# ---------------------------------------------------------------------------
# output checks (shared by timing and traced runs)
# ---------------------------------------------------------------------------


def check_coin(outputs: dict, nonfaulty) -> str | None:
    """Every nonfaulty pid output a bit in {0, 1}."""
    for pid in nonfaulty:
        if pid not in outputs:
            return f"process {pid} produced no coin output"
        if outputs[pid] not in (0, 1):
            return f"process {pid} output {outputs[pid]!r}, not a bit"
    return None


def check_agreement(result, inputs: dict) -> str | None:
    """Terminated, agreed, and the decision is some nonfaulty input (which
    is validity whenever the nonfaulty inputs are unanimous)."""
    if not result.terminated:
        return "a nonfaulty process did not decide"
    if not result.agreed:
        return f"nonfaulty processes disagree: {result.decisions!r}"
    allowed = {inputs[pid] for pid in result.nonfaulty}
    if result.decision not in allowed:
        return f"decision {result.decision!r} is no nonfaulty input {sorted(allowed)}"
    return None


def check_batch(result, rows) -> str | None:
    """All K instances decided, each under :func:`check_agreement`."""
    if len(result.results) != len(rows):
        return f"{len(result.results)} instance results for {len(rows)} rows"
    for k, iid in enumerate(result.instance_ids):
        inputs = {pid: rows[k][pid - 1] for pid in result.config.pids}
        failure = check_agreement(result.results[iid], inputs)
        if failure is not None:
            return f"instance {k}: {failure}"
    return None


def check_net(outputs: dict, stats: dict, n: int) -> str | None:
    """n coin outputs, no frame error, no rejected handshake."""
    failure = check_coin(outputs, range(1, n + 1))
    if failure is not None:
        return failure
    if stats["frame_errors"]:
        return f"{stats['frame_errors']} frame errors"
    if stats["auth_rejected"]:
        return f"{stats['auth_rejected']} rejected handshakes"
    return None


# ---------------------------------------------------------------------------
# counts every simulator operation reports (they repeat exactly per seed)
# ---------------------------------------------------------------------------

RESULT_COUNTERS = (
    "events_dispatched",
    "messages_pushed",
    "envelopes_pushed",
    "payloads_coalesced",
    "svec_packed",
    "svec_slots",
    "svec_batch_ingested",
    "dmm_verdicts_batched",
    "dmm_verdict_fallbacks",
    "dmm_verdict_calls",
    "rows_vectorized",
    "backend_fallbacks",
)


def with_logical_messages(counts: dict) -> dict:
    """Envelope framing removed: an envelope counts as its payloads."""
    counts["logical_messages"] = (
        counts["messages_pushed"]
        - counts["envelopes_pushed"]
        + counts["payloads_coalesced"]
    )
    return counts


def result_counts(result) -> dict:
    return with_logical_messages(
        {name: getattr(result, name, 0) for name in RESULT_COUNTERS}
    )


def runtime_counters(runtime) -> dict:
    """The same counters read off a long-lived ``Runtime`` (beacon)."""
    counts = {name: getattr(runtime, name, 0) for name in RESULT_COUNTERS}
    counts["messages_pushed"] = runtime.queue.pushed_total
    return counts


def counts_between(after: dict, before: dict) -> dict:
    return with_logical_messages(
        {name: after[name] - before[name] for name in RESULT_COUNTERS}
    )


# ---------------------------------------------------------------------------
# workloads: prepare() sets up, run(index) -> (failure, counts, extra)
# ---------------------------------------------------------------------------


class Workload:
    """Set-up + one operation of a workload.  ``prepare`` runs before the
    first operation is issued (it is part of ``setup_s``)."""

    def __init__(self, job: dict):
        self.job = job
        self.params = job["params"]
        self.base_seed = job["seed"]

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self, index: int):
        raise NotImplementedError

    def close(self) -> None:
        pass


class CoinWorkload(Workload):
    def prepare(self) -> None:
        from repro import SystemConfig, flip_common_coin
        from repro.sim.scheduler import FifoScheduler
        from repro.sim.tracing import TRACE_OFF

        self.flip = flip_common_coin
        self.config = SystemConfig
        self.scheduler = FifoScheduler
        self.kwargs = accepted_kwargs(
            flip_common_coin, coalesce=True, svec=True, trace_level=TRACE_OFF
        )

    def run(self, index: int):
        config = self.config(n=self.params["n"], seed=op_seed(self.base_seed, index))
        result, stack = self.flip(config, scheduler=self.scheduler(), **self.kwargs)
        failure = check_coin(result.outputs, stack.nonfaulty())
        return failure, result_counts(result), {"backend": result.algebra_backend}


class IdealBatchWorkload(Workload):
    def prepare(self) -> None:
        from repro import SystemConfig, run_byzantine_agreement_batch
        from repro.sim.scheduler import FifoScheduler
        from repro.sim.tracing import TRACE_OFF

        self.batch = run_byzantine_agreement_batch
        self.config = SystemConfig
        self.scheduler = FifoScheduler
        self.rows = rotated_split_inputs(self.params["n"], self.params["k"])
        self.kwargs = accepted_kwargs(
            run_byzantine_agreement_batch, coalesce_votes=True, trace_level=TRACE_OFF
        )

    def run(self, index: int):
        config = self.config(n=self.params["n"], seed=op_seed(self.base_seed, index))
        result = self.batch(
            self.rows,
            config,
            coin=("ideal", 1.0),
            scheduler=self.scheduler(),
            **self.kwargs,
        )
        extra = {"rounds": result.max_rounds, "backend": result.algebra_backend}
        return check_batch(result, self.rows), result_counts(result), extra


def byzantine_scenario(n: int, scenario_seed: int):
    """Inputs of one ``aba_byz_n4`` operation, a pure function of one
    integer: config, split inputs, one random byzantine process drawn from
    the whole ``BEHAVIOR_KINDS`` catalogue, uniform random delays."""
    from repro import SystemConfig, random_adversary
    from repro.sim.scheduler import UniformDelayScheduler

    config = SystemConfig(n=n, seed=scenario_seed)
    adversary = random_adversary(config, scenario_seed, count=config.t)
    scheduler = UniformDelayScheduler(Random(scenario_seed))
    inputs = {pid: (pid - 1) % 2 for pid in config.pids}
    return config, inputs, adversary, scheduler


#: Share of a run's agreements that end in 2 rounds (the rest take 3 or
#: more).  Drawn blindly the split is 51/49, which puts the median
#: operation on the gap between the two cost modes, where it jumps between
#: 0.45 s and 0.75 s with the draw; at 60/40 the median is a 2-round run
#: and the 75th percentile a 3-round one, whatever the seed.
TWO_ROUND_SHARE = 0.6


def one_per_bin(ranked: list, bins: int, rng: Random) -> list:
    """Cut ``ranked`` into ``bins`` consecutive slices, pick one of each."""
    if bins > len(ranked):
        raise ValueError(f"{len(ranked)} scenarios cannot fill {bins} bins")
    size = len(ranked)
    return [
        rng.choice(ranked[size * k // bins : size * (k + 1) // bins])
        for k in range(bins)
    ]


def draw_scenarios(panel: dict, base_seed: int, ops: int) -> list[int]:
    """``ops`` scenario seeds for one run.  The panel lists its scenarios by
    rising cost; the 2-round ones are cut into ``0.6 * ops`` consecutive
    bins, the others into the remaining ``0.4 * ops``, and ``base_seed``
    picks one scenario from each bin, then the order.

    An operation's cost is set by how many rounds the coin happens to take
    (2.6x between 2 and 3 rounds) and by the adversary kind (5x between
    ``silent`` and ``slot_poison``), so a plain random draw makes two seeds
    two different workloads.  Drawn this way every run has the same cost
    profile while the scenarios themselves still change with the seed.
    """
    two = [e["seed"] for e in panel["scenarios"] if e["rounds"] <= 2]
    more = [e["seed"] for e in panel["scenarios"] if e["rounds"] > 2]
    rng = Random(base_seed)
    quota = round(ops * TWO_ROUND_SHARE)
    chosen = one_per_bin(two, quota, rng) + one_per_bin(more, ops - quota, rng)
    rng.shuffle(chosen)
    return chosen


class ByzantineWorkload(Workload):
    def prepare(self) -> None:
        from repro import run_byzantine_agreement
        from repro.sim.tracing import TRACE_OFF

        self.agree = run_byzantine_agreement
        self.kwargs = accepted_kwargs(
            run_byzantine_agreement, coalesce=True, svec=True, trace_level=TRACE_OFF
        )
        if self.job.get("smoke") or self.job.get("scenarios") == "plain":
            self.scenarios = [op_seed(self.base_seed, i) for i in range(self.job["planned_ops"])]
        else:
            with open(os.path.join(os.path.dirname(__file__), "panel.json")) as handle:
                panel = json.load(handle)
            self.scenarios = draw_scenarios(panel, self.base_seed, self.job["planned_ops"])

    def run(self, index: int):
        scenario = self.scenarios[index]
        config, inputs, adversary, scheduler = byzantine_scenario(self.params["n"], scenario)
        result = self.agree(
            inputs,
            config,
            coin="svss",
            adversary=adversary,
            scheduler=scheduler,
            **self.kwargs,
        )
        extra = {
            "scenario": scenario,
            "rounds": result.max_rounds,
            "kind": adversary.spec[2][0][1] if adversary.spec[2] else "none",
            "backend": result.algebra_backend,
        }
        return check_agreement(result, inputs), result_counts(result), extra


class BeaconWorkload(Workload):
    def prepare(self) -> None:
        from repro import SystemConfig, build_stack
        from repro.core.api import make_coins
        from repro.sim.scheduler import FifoScheduler
        from repro.sim.tracing import TRACE_OFF

        config = SystemConfig(n=self.params["n"], seed=op_seed(self.base_seed, 0))
        kwargs = accepted_kwargs(
            build_stack, coalesce=True, svec=True, trace_level=TRACE_OFF
        )
        self.stack = build_stack(config, scheduler=FifoScheduler(), **kwargs)
        self.coins = make_coins(self.stack, "svss")
        self.before = runtime_counters(self.stack.runtime)

    def run(self, index: int):
        stack = self.stack
        runtime = stack.runtime
        coins = self.coins
        csid = ("beacon", index)
        outputs: dict[int, int] = {}
        with runtime.coalescing_step():
            for pid in stack.config.pids:
                coins[pid].join(csid)
                coins[pid].get(csid, lambda v, pid=pid: outputs.setdefault(pid, v))
                coins[pid].release(csid)
        everyone = set(stack.config.pids)
        runtime.run_until(
            lambda: everyone <= set(outputs), max_events=MAX_EVENTS, on_change=True
        )
        after = runtime_counters(runtime)
        counts = counts_between(after, self.before)
        self.before = after
        extra = {"rss_mb": current_rss_mb(), "backend": runtime.algebra_backend}
        return check_coin(outputs, stack.nonfaulty()), counts, extra


class NetCoinWorkload(Workload):
    """One event loop holds the cluster for the worker's lifetime."""

    def prepare(self) -> None:
        from repro import SystemConfig
        from repro.net import NetCluster
        from repro.sim.tracing import TRACE_OFF

        self.loop = asyncio.new_event_loop()
        self.tmp = tempfile.mkdtemp(prefix="journal-", dir=self.job["scratch_dir"])
        config = SystemConfig(n=self.params["n"], seed=op_seed(self.base_seed, self.job["first_op"]))
        kwargs = accepted_kwargs(NetCluster.__init__, trace_level=TRACE_OFF)
        self.cluster = NetCluster(config, journal_dir=self.tmp, **kwargs)
        self.loop.run_until_complete(self.cluster.start())

    def run(self, index: int):
        cluster = self.cluster
        timeout = float(self.job["op_timeout_s"])
        outputs = self.loop.run_until_complete(
            cluster.flip_coin(session=index, timeout=timeout)
        )
        stats = cluster.stats()
        peers = [p for node in stats["nodes"].values() for p in node["peers"].values()]
        journals = [node["journal"] or {} for node in stats["nodes"].values()]
        extra = {
            "net": {
                "frames_sent": sum(p["sent"] for p in peers),
                "delivered": sum(node["delivered"] for node in stats["nodes"].values()),
                "retransmits": sum(p["retransmits"] for p in peers),
                "reconnects": sum(p["reconnects"] for p in peers),
                "journal_appended": sum(j.get("appended", 0) for j in journals),
                "journal_flushes": sum(j.get("flushes", 0) for j in journals),
                "journal_fsyncs": sum(j.get("fsyncs", 0) for j in journals),
                "journal_bytes": sum(
                    os.path.getsize(os.path.join(self.tmp, name))
                    for name in os.listdir(self.tmp)
                ),
            }
        }
        return check_net(outputs, stats, self.params["n"]), {}, extra

    def close(self) -> None:
        try:
            self.loop.run_until_complete(self.cluster.close())
            self.loop.close()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {
    "coin_n7": CoinWorkload,
    "aba_ideal_k16": IdealBatchWorkload,
    "aba_byz_n4": ByzantineWorkload,
    "beacon_n4": BeaconWorkload,
    "net_coin_n4": NetCoinWorkload,
}

#: Workloads whose operations build a fresh stack each: garbage of the
#: previous operation is collected between operations, outside the timed
#: region, so one operation does not pay for its predecessor's heap.  The
#: beacon keeps one stack alive on purpose and is left alone.
COLLECT_BETWEEN_OPS = {"aba_ideal_k16", "aba_byz_n4"}


def warm_algebra_backend() -> None:
    """Resolve the default algebra backend during set-up.

    The first ``Runtime`` otherwise imports numpy inside the first timed
    operation; resolved here the cost is part of ``setup_s``, where it
    shows, and every operation of a run is timed alike.  No backend is
    selected: this is the resolution the default path performs anyway.
    """
    try:
        from repro.field.backend import resolve_backend
    except ImportError:
        return
    resolve_backend()


def run_job(job: dict) -> dict:
    """Set the workload up, run ``job["ops"]`` operations starting at
    ``job["first_op"]``, return the report ``bench.py`` aggregates."""
    # Set-up is short (a quarter of a second), so the host is sampled five
    # times as often while it lasts.
    kernel = job["kernel"]
    sampler = HostSpeedSampler(kernel["interval_s"], kernel["rounds"])
    setup_start = time.perf_counter()
    sampler.start(kernel["setup_interval_s"])
    probe = None
    if job.get("trace"):
        import repro  # noqa: F401  (every namespace must exist before patching)
        import repro.net  # noqa: F401
        from layerprobe import LayerProbe

        probe = LayerProbe().install()
        probe.calibrate()
    workload = WORKLOADS[job["workload"]](job)
    report: dict = {"workload": job["workload"], "seed": job["seed"], "ops": []}
    try:
        warm_algebra_backend()
        workload.prepare()
        setup_end = time.perf_counter()
        report["setup_s"] = time.monotonic() - job["spawned_at"] - sampler.spent_wall
        report["setup_kernel_wall_s"] = sampler.kernel_during(setup_start, setup_end, pad_s=0.0)[0]
        collect = job["workload"] in COLLECT_BETWEEN_OPS
        sampler.start()
        for index in range(job["first_op"], job["first_op"] + job["ops"]):
            if collect:
                gc.collect()
            record = {"index": index, "seed": op_seed(job["seed"], index)}
            if probe is not None:
                probe.begin_op(index)
            spent_wall, spent_cpu = sampler.spent_wall, sampler.spent_cpu
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            try:
                failure, counts, extra = workload.run(index)
            except Exception as exc:  # an operation that raises is a failed operation
                failure, counts, extra = f"{type(exc).__name__}: {exc}", {}, {}
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            if probe is not None:
                probe.end_op()
            record["wall_s"] = wall - (sampler.spent_wall - spent_wall)
            record["cpu_s"] = cpu - (sampler.spent_cpu - spent_cpu)
            record["span"] = (wall0, wall0 + wall)
            record["failure"] = failure
            record["counts"] = counts
            record.update(extra)
            report["ops"].append(record)
    finally:
        sampler.stop()
        workload.close()
    for record in report["ops"]:
        kernel = sampler.kernel_during(*record.pop("span"))
        record["kernel_wall_s"], record["kernel_cpu_s"], record["kernel_samples"] = kernel
    report["peak_rss_mb"] = peak_rss_mb()
    report["python"] = sys.version.split()[0]
    numpy = sys.modules.get("numpy")
    report["numpy"] = getattr(numpy, "__version__", None)
    if probe is not None:
        report["trace"] = {
            "budget": probe.budget(),
            "seams": {name: cell[0] for name, cell in probe.seam_calls.items()},
            "rb_deliveries": probe.rb_deliveries[0],
            "coin_sessions": len(probe.captured.get("coin.sessions", ())),
            "frame_bytes": {
                str(ftype): entry
                for ftype, entry in probe.captured.get("frame.bytes", {}).items()
            },
            "missing": probe.missing,
            "inner_ns": probe.inner_ns,
            "outer_ns": probe.outer_ns,
            "op_wall_s": probe.op_wall_ns / 1e9,
            "raw_spans": probe.raw_spans(),
        }
    return report


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    report = run_job(job)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
