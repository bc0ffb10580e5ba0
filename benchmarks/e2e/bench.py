#!/usr/bin/env python3
"""End-to-end benchmark of the ABA stack: seconds and MB per coin / agreement.

One closed loop, one client, one operation in flight.  This process only
orchestrates: every operation runs in a worker subprocess (``worker.py``)
with a scrubbed environment, so the parent never imports ``repro`` and its
own heap never touches a measurement.

Commands (``spec.json`` holds the workloads, metrics, bounds and op counts)::

    bench.py measure --workload W --seed S --seconds T --trace 0|1   # driver contract
    bench.py run     [--workload W|all] [--seed S] [--repeat R] [--json OUT]
    bench.py trace   [--workload W|all] [--seed S]
    bench.py compare A.json B.json
    bench.py aa      [--seed S]
    bench.py panel   --count N

``measure`` prints one JSON object as its last line; ``run`` prints every
end-to-end metric as ``workload metric value unit n_samples``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import benchstats
from layerprobe import corrected_self_s, missing_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

with open(HERE / "spec.json") as _handle:
    SPEC = json.load(_handle)

WORKLOADS = {w["name"]: w for w in SPEC["workloads"]}
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
SIM_WORKLOADS = [name for name in WORKLOADS if name != "net_coin_n4"]
SMOKE_PARAMS = {"n": 4, "k": 4}

#: Counters that must repeat exactly for the same seed on the simulator.
EXACT_COUNTS = (
    "events_dispatched",
    "logical_messages",
    "messages_pushed",
    "dmm_verdict_calls",
    "svec_packed",
)

#: Layers that must see no call at all on a workload (the bypass
#: predictions; a call there means the workload no longer isolates what it
#: claims to isolate).
ZERO_CALL_LAYERS = {
    "aba_ideal_k16": (
        "vectormux", "manager", "dmm", "mwsvss", "svss", "poly", "coin",
        "codec.encode", "codec.decode", "journal",
    ),
    "coin_n7": ("codec.encode", "codec.decode", "journal"),
    "aba_byz_n4": ("codec.encode", "codec.decode", "journal"),
    "beacon_n4": ("codec.encode", "codec.decode", "journal"),
    "net_coin_n4": ("sim",),
}


class BenchError(Exception):
    """A run that cannot produce a well-formed result."""


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------


def scrubbed_env(environ) -> dict:
    """The worker environment: the caller's, minus every switch that selects
    a non-default path of the program (``REPRO_BATCH_INGEST``,
    ``REPRO_ALGEBRA_BACKEND``, ``REPRO_*_SMOKE``), with ``src`` importable."""
    env = {
        key: value
        for key, value in environ.items()
        if key not in ("REPRO_BATCH_INGEST", "REPRO_ALGEBRA_BACKEND")
        and not (key.startswith("REPRO_") and key.endswith("_SMOKE"))
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn_worker(job: dict, timeout: float) -> dict:
    """Run one worker to completion; a worker that dies or overruns yields
    ``{"error": reason}`` (its operations then count as failed)."""
    # The worker's scratch space (journals) lives and dies with this call,
    # also when the worker is killed on timeout.
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="worker-", dir=RESULTS) as scratch:
        job = dict(job, spawned_at=time.monotonic(), scratch_dir=scratch)
        command = [sys.executable, str(HERE / "worker.py"), json.dumps(job)]
        try:
            done = subprocess.run(
                command,
                env=scrubbed_env(os.environ),
                cwd=str(HERE),
                capture_output=True,
                text=True,
                timeout=max(1.0, timeout),
            )
        except subprocess.TimeoutExpired:
            return {"error": f"timeout after {timeout:.0f}s"}
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": f"worker exit {done.returncode}: {tail[0]}"}
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "worker printed no report"}


def host_record() -> dict:
    record = {"nproc": os.cpu_count(), "loadavg_before": os.getloadavg()[0]}
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        # A checkout that is not its own git repository has no commit.
        record["commit"] = out[1] if len(out) == 2 and Path(out[0]) == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError):
        record["commit"] = "unknown"
    return record


def planned_ops(workload: dict, seconds: float, key: str, smoke: bool) -> int:
    if smoke:
        return 1
    return max(1, round(workload[key] * seconds / SPEC["run_seconds"]))


def base_job(name: str, seed: int, ops: int, trace: bool, smoke: bool) -> dict:
    workload = WORKLOADS[name]
    return {
        "workload": name,
        "seed": seed,
        "params": SMOKE_PARAMS if smoke else workload["params"],
        "planned_ops": ops,
        "smoke": smoke,
        "trace": trace,
        "op_timeout_s": workload["op_timeout_s"],
        "kernel": SPEC["reference_kernel"],
    }


def at_reference_speed(records: list) -> None:
    """Add ``wall_ref_s`` / ``cpu_ref_s`` to every completed operation: its
    seconds divided by the host's slowdown around it — the median duration
    of the reference kernel the worker sampled in flight, over the kernel's
    duration on the reference box (``spec.json: reference_kernel``)."""
    nominal = SPEC["reference_kernel"]["nominal_s"]
    for record in records:
        if record.get("failure") is None:
            record["slowdown"] = record["kernel_wall_s"] / nominal
            record["wall_ref_s"] = record["wall_s"] / record["slowdown"]
            record["cpu_ref_s"] = record["cpu_s"] * nominal / record["kernel_cpu_s"]


def setup_at_reference_speed(report: dict) -> float:
    """A worker's set-up seconds over the host's slowdown during set-up."""
    nominal = SPEC["reference_kernel"]["nominal_s"]
    return report["setup_s"] * nominal / report["setup_kernel_wall_s"]


def run_ops(name: str, seed: int, ops: int, trace: bool, smoke: bool, deadline: float):
    """Run ``ops`` operations of a workload in fresh worker(s), one at a
    time.  Returns (op records, worker reports); an operation whose worker
    died is recorded with the worker's error as its failure."""
    workload = WORKLOADS[name]
    job = base_job(name, seed, ops, trace, smoke)
    chunks = [(i, 1) for i in range(ops)] if workload["fresh_worker_per_op"] else [(0, ops)]
    records, reports = [], []
    for first, count in chunks:
        budget = min(workload["op_timeout_s"] * count + 30, deadline - time.monotonic())
        report = spawn_worker(dict(job, first_op=first, ops=count), budget)
        done = report.get("ops", [])
        at_reference_speed(done)
        records.extend(done)
        for index in range(first + len(done), first + count):
            records.append({"index": index, "failure": report.get("error", "worker lost the operation")})
        reports.append(report)
    return records, reports


def failed_ops(records: list) -> list:
    return [
        {"index": r["index"], "reason": r["failure"]}
        for r in records if r.get("failure") is not None
    ]


# ---------------------------------------------------------------------------
# a timing run (tracing off)
# ---------------------------------------------------------------------------


def timing_run(name: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    """One run of one workload: every end-to-end metric, untraced."""
    workload = WORKLOADS[name]
    host = host_record()
    deadline = time.monotonic() + SPEC["run_deadline_s"]
    ops = planned_ops(workload, seconds, "ops", smoke)
    records, reports = run_ops(name, seed, ops, False, smoke, deadline)
    setups = [setup_at_reference_speed(r) for r in reports if "setup_s" in r]
    setup_only = dict(base_job(name, seed, ops, False, smoke), first_op=0, ops=0)
    while len(setups) < (1 if smoke else SPEC["setups_per_run"]):
        report = spawn_worker(setup_only, min(60.0, deadline - time.monotonic()))
        if "setup_s" not in report:
            break
        setups.append(setup_at_reference_speed(report))
    host["loadavg_after"] = os.getloadavg()[0]
    good = [r for r in records if r.get("failure") is None]
    failures = failed_ops(records)
    run = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "host": host,
        "flags": [],
        "metrics": {},
        "counts": {},
    }
    worker_facts = next((r for r in reports if "python" in r), {})
    host["python"] = worker_facts.get("python")
    host["numpy"] = worker_facts.get("numpy")
    host["algebra_backend"] = next((r["backend"] for r in good if r.get("backend")), None)
    if max(host["loadavg_before"], host["loadavg_after"]) > host["nproc"] - SPEC["noisy_host_margin"]:
        run["flags"].append("noisy_host")
    if not good or not setups:
        return run

    def put(metric: str, value: float, samples: int) -> None:
        run["metrics"][metric] = {"value": value, "unit": E2E[metric]["unit"], "n": samples}

    walls = [r["wall_ref_s"] for r in good]
    host["slowdown_p50"] = statistics.median(r["slowdown"] for r in good)
    host["op_wall_raw_s_p50"] = statistics.median(r["wall_s"] for r in good)
    if host["slowdown_p50"] > SPEC["slow_host_factor"]:
        run["flags"].append("slow_host")
    put("setup_s", statistics.median(setups), len(setups))
    put("op_wall_s_p50", statistics.median(walls), len(walls))
    put("op_cpu_s_p50", statistics.median(r["cpu_ref_s"] for r in good), len(good))
    put("ops_per_s", len(walls) / sum(walls), len(walls))
    put("peak_rss_mb", max(r["peak_rss_mb"] for r in reports if "peak_rss_mb" in r), len(reports))
    put("failed_share", len(failures) / len(records), len(records))
    if name in E2E["op_wall_s_p75"]["workloads"]:
        put("op_wall_s_p75", benchstats.percentile(walls, 75), len(walls))
    if name in E2E["latency_drift"]["workloads"] and len(good) >= 4:
        put("latency_drift", latency_drift(good), 2 * max(1, len(good) // 4))
        growth = (good[-1]["rss_mb"] - good[0]["rss_mb"]) / (len(good) - 1)
        put("rss_growth_mb_per_op", growth, len(good))
    if name in SIM_WORKLOADS:
        for counter in EXACT_COUNTS:
            run["counts"][counter] = sum(r["counts"].get(counter, 0) for r in good)
    return run


def latency_drift(records: list) -> float:
    """Median wall of the last quartile of operations over the first's.

    Raw seconds on purpose: the slowdown sampled around an operation also
    rises when the worker's own growing heap crowds the caches, so at
    reference speed a drift the program causes would cancel out.  Within
    one 20-second run the host's own drift is the smaller effect."""
    quarter = max(1, len(records) // 4)
    return statistics.median(r["wall_s"] for r in records[-quarter:]) / statistics.median(
        r["wall_s"] for r in records[:quarter]
    )


def require_complete(run: dict) -> None:
    """A run is well formed when every metric its workload reports is there."""
    expected = [m["name"] for m in SPEC["end_to_end"] if run["workload"] in m["workloads"]]
    missing = [name for name in expected if name not in run["metrics"]]
    if run["smoke"]:
        missing = [m for m in missing if m not in ("latency_drift", "rss_growth_mb_per_op")]
    if missing:
        reasons = "; ".join(f["reason"] for f in run["failures"][:3]) or "no operation completed"
        raise BenchError(f"{run['workload']}: no value for {', '.join(missing)} ({reasons})")


# ---------------------------------------------------------------------------
# a traced run (per-layer budget)
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(name: str, traced_ops: list, traces: list, untraced_wall_s: float) -> dict:
    """The per-layer metrics of one traced run, per operation (means over
    the traced operations).  ``None`` marks a layer whose seam is gone.

    ``*.self_s``: each layer's raw self time loses the probe's calibrated
    per-call cost; what tracing still adds on top of ``untraced_wall_s``
    (the same operations, untraced, at reference speed) — cold wrappers,
    evicted caches — is taken off every layer in proportion, so the layers
    add up to the untraced operation wall."""
    ops = max(1, len(traced_ops))
    budget: dict = {}
    seams: dict = {}
    frame_bytes: dict = {}
    notes: set = set()
    deliveries = sessions = 0
    for trace in traces:
        for layer, entry in trace["budget"].items():
            slot = budget.setdefault(layer, {"calls": 0, "self_s": 0.0})
            slot["calls"] += entry["calls"]
            slot["self_s"] += corrected_self_s(entry, trace["inner_ns"], trace["outer_ns"])
        for seam, count in trace["seams"].items():
            seams[seam] = seams.get(seam, 0) + count
        for ftype, (count, size) in trace["frame_bytes"].items():
            entry = frame_bytes.setdefault(ftype, [0, 0])
            entry[0] += count
            entry[1] += size
        deliveries += trace["rb_deliveries"]
        sessions += trace["coin_sessions"]
        notes.update(trace["missing"])
    missing = missing_layers(notes)

    def total(counter: str) -> float:
        return sum(r.get("counts", {}).get(counter, 0) for r in traced_ops)

    def net(counter: str) -> float:
        return sum(r.get("net", {}).get(counter, 0) for r in traced_ops)

    to_untraced = _ratio(untraced_wall_s, sum(slot["self_s"] for slot in budget.values()))

    def self_s(*layers: str):
        if any(layer in missing for layer in layers) or "registration" in missing:
            return None
        return sum(budget[layer]["self_s"] for layer in layers) * to_untraced / ops

    def calls(*names: str):
        if any(note.endswith("." + seam) for seam in names for note in notes):
            return None
        return sum(seams.get(seam, 0) for seam in names) / ops

    rb_calls = calls("BroadcastManager._on_b1", "BroadcastManager._on_b2", "BroadcastManager._on_b3")
    journal_frame = "9"  # FRAME_JOURNAL
    wire = [entry for ftype, entry in frame_bytes.items() if ftype != journal_frame]
    out = {
        "sim.events": total("events_dispatched") / ops,
        "sim.msgs_pushed": total("messages_pushed") / ops,
        "sim.envelopes": total("envelopes_pushed") / ops,
        "sim.payloads_per_envelope": _ratio(total("payloads_coalesced"), total("envelopes_pushed")),
        "sim.self_s": self_s("sim"),
        "sim.envelope_self_s": self_s("sim.envelope"),
        "broadcast.handler_calls": rb_calls,
        "broadcast.delivered": deliveries / ops,
        "broadcast.echo_per_delivery": None if rb_calls is None else _ratio(rb_calls * ops, deliveries),
        "broadcast.self_s": self_s("broadcast"),
        "vectormux.svec_packed": total("svec_packed") / ops,
        "vectormux.slots_per_vector": _ratio(total("svec_slots"), total("svec_packed")),
        "vectormux.self_s": self_s("vectormux"),
        "manager.ingest_vector_calls": calls("VSSManager.ingest_vector"),
        "manager.batched_share": _ratio(
            total("dmm_verdicts_batched"),
            total("dmm_verdicts_batched") + total("dmm_verdict_calls"),
        ),
        "manager.self_s": self_s("manager"),
        "dmm.verdict_calls": total("dmm_verdict_calls") / ops,
        "dmm.verdict_fallbacks": total("dmm_verdict_fallbacks") / ops,
        "dmm.shun_pairs": calls("VSSManager._record_shun"),
        "dmm.self_s": self_s("dmm"),
        "mwsvss.handle_calls": calls("MWSVSSInstance.handle"),
        "mwsvss.self_s": self_s("mwsvss"),
        "svss.handle_calls": calls("SVSSInstance.handle"),
        "svss.self_s": self_s("svss"),
        "poly.calls": budget["poly"]["calls"] / ops,
        "poly.rows_vectorized": total("rows_vectorized") / ops,
        "poly.backend_fallbacks": total("backend_fallbacks") / ops,
        "poly.vectorized_share": _ratio(
            total("rows_vectorized"), total("rows_vectorized") + total("backend_fallbacks")
        ),
        "poly.self_s": self_s("poly"),
        "coin.invocations": sessions / ops,
        "coin.self_s": self_s("coin"),
        "agreement.rounds_p50": statistics.median([r.get("rounds", 0) for r in traced_ops] or [0]),
        "agreement.vote_calls": calls("ABAProcess._on_rb"),
        "agreement.self_s": self_s("agreement"),
        "codec.encode_calls": budget["codec.encode"]["calls"] / ops,
        "codec.decode_calls": budget["codec.decode"]["calls"] / ops,
        "codec.bytes_per_frame": _ratio(
            sum(e[1] for e in frame_bytes.values()), sum(e[0] for e in frame_bytes.values())
        ),
        "codec.encode_s": self_s("codec.encode"),
        "codec.decode_s": self_s("codec.decode"),
        "journal.appended": net("journal_appended") / ops,
        "journal.flushes": net("journal_flushes") / ops,
        "journal.fsyncs": net("journal_fsyncs") / ops,
        "journal.bytes": net("journal_bytes") / ops,
        "journal.self_s": self_s("journal"),
        "transport.frames_sent": net("frames_sent") / ops,
        "transport.delivered": net("delivered") / ops,
        "transport.retransmits": net("retransmits") / ops,
        "transport.reconnects": net("reconnects") / ops,
        "transport.wire_bytes": sum(e[1] for e in wire) / ops,
        "transport.frames_per_logical_msg": _ratio(net("frames_sent"), net("delivered")),
        # Over sockets the entry point's residue *is* the transport: the
        # asyncio loop and the links, minus handlers, codec and journal.
        "transport.self_s": self_s("transport", "driver") if name == "net_coin_n4" else self_s("transport"),
    }
    return out


def trace_run(name: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    """The same operations untraced then traced, in fresh workers; returns
    the per-layer metrics and writes ``results/trace_<workload>.json``."""
    workload = WORKLOADS[name]
    host = host_record()
    deadline = time.monotonic() + SPEC["run_deadline_s"]
    ops = planned_ops(workload, seconds, "trace_ops", smoke)
    plain, _ = run_ops(name, seed, ops, False, smoke, deadline)
    traced, reports = run_ops(name, seed, ops, True, smoke, deadline)
    host["loadavg_after"] = os.getloadavg()[0]
    records = plain + traced
    failures = failed_ops(records)
    traces = [r["trace"] for r in reports if "trace" in r]
    run = {
        "workload": name, "seed": seed, "smoke": smoke, "attempted": len(records),
        "failed": len(failures), "failures": failures, "host": host,
        "checks": [], "metrics": {}, "probe_missing": [],
    }
    if failures or not traces:
        return run
    plain_walls = [r["wall_ref_s"] for r in plain]
    traced_walls = [r["wall_ref_s"] for r in traced]
    metrics = layer_metrics(name, traced, traces, sum(plain_walls))
    metrics["host.slowdown"] = statistics.median(r["slowdown"] for r in plain)
    metrics["host.op_wall_raw_s_p50"] = statistics.median(r["wall_s"] for r in plain)
    op_wall = sum(t["op_wall_s"] for t in traces)
    raw_total = sum(e["self_s_raw"] for t in traces for e in t["budget"].values())
    residue = sum(t["budget"]["driver"]["self_s_raw"] for t in traces)
    attributed = 1.0 if name == "net_coin_n4" else 1.0 - _ratio(residue, op_wall)
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    metrics["trace.attributed_share"] = attributed
    metrics["tail.op_wall_s_p75"] = benchstats.percentile(plain_walls, 75)
    metrics["state.latency_drift"] = latency_drift(plain)
    metrics["state.rss_growth_mb_per_op"] = (
        (plain[-1]["rss_mb"] - plain[0]["rss_mb"]) / (len(plain) - 1)
        if len(plain) > 1 and "rss_mb" in plain[0] else 0.0
    )
    checks = run["checks"]
    if abs(raw_total - op_wall) > 0.05 * op_wall:
        checks.append(f"layer self times sum to {raw_total:.3f}s, operation wall is {op_wall:.3f}s")
    if attributed < 0.95 and not smoke:
        checks.append(f"only {attributed:.1%} of the operation wall is inside a probed layer")
    if not smoke:
        for layer in ZERO_CALL_LAYERS[name]:
            calls = sum(t["budget"][layer]["calls"] for t in traces)
            if calls:
                checks.append(f"{calls} calls into {layer}, predicted none")
    if name in SIM_WORKLOADS:
        for a, b in zip(plain, traced):
            for counter in EXACT_COUNTS:
                if a["counts"].get(counter) != b["counts"].get(counter):
                    checks.append(
                        f"op {a['index']}: {counter} {a['counts'].get(counter)} untraced, "
                        f"{b['counts'].get(counter)} traced (same seed)"
                    )
    run["probe_missing"] = sorted({note for t in traces for note in t["missing"]})
    run["metrics"] = {
        metric: {"value": value, "unit": PER_LAYER[metric]["unit"]}
        for metric, value in metrics.items()
    }
    payload = {
        "workload": name, "seed": seed, "traced_ops": len(traced), "host": host,
        "probe": {
            "inner_ns_per_call": traces[0]["inner_ns"],
            "outer_ns_per_call": traces[0]["outer_ns"],
            "missing": run["probe_missing"],
        },
        "op_wall_s_p50": {"untraced": statistics.median(plain_walls), "traced": statistics.median(traced_walls)},
        "checks": checks,
        "metrics": run["metrics"],
        "budget": [t["budget"] for t in traces],
        "raw_spans": traces[0]["raw_spans"],
    }
    suffix = "_smoke" if smoke else ""
    with open(RESULTS / f"trace_{name}{suffix}.json", "w") as handle:
        json.dump(payload, handle, indent=1)
    return run


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def selected(workload: str) -> list[str]:
    if workload == "all":
        return list(WORKLOADS)
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return [workload]


def print_run(run: dict) -> None:
    name = run["workload"]
    for metric, entry in run["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']} {entry['n']}")
    for counter, value in run["counts"].items():
        print(f"{name} count.{counter} {value} count {run['attempted'] - run['failed']}")
    for fact in ("slowdown_p50", "op_wall_raw_s_p50"):
        if fact in run["host"]:
            print(f"{name} host.{fact} {run['host'][fact]:.6g}")
    for flag in run["flags"]:
        print(f"{name} flag {flag}")
    for failure in run["failures"]:
        print(f"{name} FAILED op {failure['index']}: {failure['reason']}")


def cmd_measure(args) -> int:
    name = selected(args.workload)[0]
    if args.trace:
        run = trace_run(name, args.seed, args.seconds)
        if not run["metrics"]:
            raise BenchError(f"{name}: traced run produced no metrics: {run['failures'][:3]}")
        if run["checks"]:
            print("\n".join(f"{name} CHECK {c}" for c in run["checks"]), file=sys.stderr)
        correct = run["failed"] == 0 and not run["checks"]
        # The driver takes numbers only: a metric whose seam is gone is -1.
        metrics = {
            m: {
                "value": -1 if run["metrics"][m]["value"] is None else run["metrics"][m]["value"],
                "unit": PER_LAYER[m]["unit"],
            }
            for m in PER_LAYER
        }
    else:
        run = timing_run(name, args.seed, args.seconds)
        require_complete(run)
        print_run(run)
        correct = run["failed"] == 0
        metrics = {
            m["name"]: {"value": run["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in SPEC["end_to_end"] if m["driver"]
        }
    print(json.dumps({
        "correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics,
    }))
    return 0


def run_set(names: list[str], seed: int, smoke: bool = False) -> list[dict]:
    runs = []
    for name in names:
        run = timing_run(name, seed, SPEC["run_seconds"], smoke)
        require_complete(run)
        print_run(run)
        runs.append(run)
    return runs


def cmd_run(args) -> int:
    names = selected(args.workload)
    if args.smoke:
        names = [n for n in names if n in SIM_WORKLOADS]
    runs = []
    for _ in range(args.repeat):
        runs.extend(run_set(names, args.seed, args.smoke))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"title": SPEC["title"], "runs": runs}, handle, indent=1)
    return 1 if any(run["failed"] for run in runs) else 0


def cmd_trace(args) -> int:
    status = 0
    for name in selected(args.workload):
        if args.smoke and name not in SIM_WORKLOADS:
            continue
        run = trace_run(name, args.seed, SPEC["run_seconds"], args.smoke)
        if not run["metrics"]:
            raise BenchError(f"{name}: traced run produced no metrics: {run['failures'][:3]}")
        for metric, entry in run["metrics"].items():
            value = "null" if entry["value"] is None else f"{entry['value']:.6g}"
            print(f"{name} {metric} {value} {entry['unit']}")
        for note in run["probe_missing"]:
            print(f"{name} probe_missing {note}")
        for check in run["checks"]:
            print(f"{name} CHECK {check}")
            status = 1
    return status


def by_workload(runs: list[dict]) -> dict:
    grouped: dict = {}
    for run in runs:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def compare_sets(parent_runs: list[dict], change_runs: list[dict]) -> list[dict]:
    """One row per (end-to-end metric, workload) present on both sides."""
    rows = []
    parent, change = by_workload(parent_runs), by_workload(change_runs)
    for name in WORKLOADS:
        if name not in parent or name not in change:
            continue
        for metric in SPEC["end_to_end"]:
            a = [r["metrics"][metric["name"]]["value"] for r in parent[name] if metric["name"] in r["metrics"]]
            b = [r["metrics"][metric["name"]]["value"] for r in change[name] if metric["name"] in r["metrics"]]
            if not a or not b:
                continue
            row = benchstats.compare(
                a, b, metric["better"], metric["bound"], metric.get("absolute", False)
            )
            rows.append(dict(row, workload=name, metric=metric["name"], unit=metric["unit"]))
        seeds_match = [r["seed"] for r in parent[name]] == [r["seed"] for r in change[name]]
        if name in SIM_WORKLOADS and seeds_match:
            for a_run, b_run in zip(parent[name], change[name]):
                if a_run["counts"] != b_run["counts"] and not (a_run["failed"] or b_run["failed"]):
                    rows.append({
                        "workload": name, "metric": "counts", "verdict": "counts_differ",
                        "parent": a_run["counts"], "change": b_run["counts"],
                    })
    return rows


def print_comparison(rows: list[dict]) -> None:
    for row in rows:
        if row["metric"] == "counts":
            print(f"{row['workload']} counts differ for the same seed: {row['parent']} vs {row['change']}")
            continue
        p, c = row["parent"], row["change"]
        print(
            f"{row['workload']} {row['metric']} {row['verdict']}: "
            f"parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] x{p['runs']}, "
            f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] x{c['runs']} {row['unit']}, "
            f"won {row['won']}/{row['pairs']}, worse by {row['worse_by']:+.2%} of bound {row['bound']:.0%}"
        )


def cmd_compare(args) -> int:
    with open(args.parent) as handle:
        parent = json.load(handle)["runs"]
    with open(args.change) as handle:
        change = json.load(handle)["runs"]
    rows = compare_sets(parent, change)
    print_comparison(rows)
    bad = [r for r in rows if r["verdict"] in (benchstats.REGRESSED, "counts_differ")]
    return 1 if bad else 0


def cmd_aa(args) -> int:
    """Two full sets of the same code, back to back, second in reverse
    workload order; fails when a metric differs by more than its bound in
    either direction or a simulator count does not repeat."""
    names = selected(args.workload)
    first = run_set(names, args.seed)
    second = run_set(list(reversed(names)), args.seed)
    forward = compare_sets(first, second)
    backward = compare_sets(second, first)
    print_comparison(forward)
    bad = [
        r for r in forward + backward
        if r["verdict"] in (benchstats.REGRESSED, "counts_differ")
    ]
    for row in bad:
        print(f"A/A MISMATCH {row['workload']} {row['metric']}")
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"aa_seed{args.seed}.json", "w") as handle:
        json.dump({"first": first, "second": second}, handle, indent=1)
    return 1 if bad else 0


def cmd_panel(args) -> int:
    """Run ``--count`` byzantine scenarios (seeds 0..count-1) once and write
    ``panel.json``: the scenarios by rising operation wall at reference
    speed, with the adversary kind, rounds and events of each."""
    job = dict(
        base_job("aba_byz_n4", 0, args.count, False, False),
        first_op=0, ops=args.count, scenarios="plain",
    )
    report = spawn_worker(job, 3600.0)
    if "error" in report:
        raise BenchError(report["error"])
    at_reference_speed(report["ops"])
    failed = failed_ops(report["ops"])
    if failed:
        raise BenchError(f"scenario failed: {failed[0]}")
    scenarios = sorted(
        (
            {
                "seed": op["scenario"], "wall_ref_s": round(op["wall_ref_s"], 4),
                "kind": op["kind"], "rounds": op["rounds"],
                "events": op["counts"]["events_dispatched"],
            }
            for op in report["ops"]
        ),
        key=lambda entry: (entry["wall_ref_s"], entry["seed"]),
    )
    panel = {
        "what": "aba_byz_n4 scenario seeds by rising operation wall (s at reference speed), measured once",
        "commit": host_record()["commit"],
        "slowdown_p50": statistics.median(op["slowdown"] for op in report["ops"]),
        "scenarios": scenarios,
    }
    with open(HERE / "panel.json", "w") as handle:
        json.dump(panel, handle, indent=0)
    walls = [entry["wall_ref_s"] for entry in scenarios]
    print(f"{len(walls)} scenarios, wall {walls[0]}..{walls[-1]} s, median {statistics.median(walls)}")
    return 0


def parse_args(argv: list[str]):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    measure = commands.add_parser("measure", help="one run of one workload, JSON on the last line")
    measure.add_argument("--workload", required=True)
    measure.add_argument("--seed", type=int, default=1)
    measure.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.set_defaults(handler=cmd_measure)

    run = commands.add_parser("run", help="print every end-to-end metric")
    run.add_argument("--workload", default="all")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--repeat", type=int, default=1)
    run.add_argument("--json")
    run.add_argument("--smoke", action="store_true")
    run.set_defaults(handler=cmd_run)

    trace = commands.add_parser("trace", help="per-layer budget, writes results/trace_<workload>.json")
    trace.add_argument("--workload", default="all")
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--smoke", action="store_true")
    trace.set_defaults(handler=cmd_trace)

    compare = commands.add_parser("compare", help="apply the comparison rule to two run files")
    compare.add_argument("parent")
    compare.add_argument("change")
    compare.set_defaults(handler=cmd_compare)

    aa = commands.add_parser("aa", help="two sets of the same code must agree within the bounds")
    aa.add_argument("--workload", default="all")
    aa.add_argument("--seed", type=int, default=1)
    aa.set_defaults(handler=cmd_aa)

    panel = commands.add_parser("panel", help="regenerate panel.json")
    panel.add_argument("--count", type=int, required=True)
    panel.set_defaults(handler=cmd_panel)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not SRC.is_dir():
        print(f"bench.py: no program to measure: {SRC} is missing", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except BenchError as exc:
        print(f"bench.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
