"""E10 / Table 6 — Reliable Broadcast substrate (paper Appendix A).

Checks the measured message cost against the analytic ``2n^2 + n`` and the
agreement property under an equivocating origin, across n, scheduled per
message (``SCHEDULERS["per-message"]``: the default scheduler's seeded delays).
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.broadcast.manager import BroadcastManager
from repro.config import SystemConfig
from repro.sim.experiments import SCHEDULERS
from repro.sim.runtime import Runtime

NS = (4, 7, 10, 13, 16)


def _measure(n: int):
    cfg = SystemConfig(n=n, seed=0)
    rt = Runtime(cfg, scheduler=SCHEDULERS["per-message"](cfg))
    managers = {pid: BroadcastManager(rt.host(pid)) for pid in cfg.pids}
    delivered = {pid: [] for pid in cfg.pids}
    for pid in cfg.pids:
        managers[pid].subscribe(
            "x", lambda o, v, pid=pid: delivered[pid].append(v)
        )
    managers[1].broadcast((1, "x", 0), ("x", "payload"))
    rt.run_to_quiescence()
    msgs = rt.trace.total_messages
    ok = all(delivered[pid] == [("x", "payload")] for pid in cfg.pids)

    # equivocation trial: raw type-1 split
    cfg2 = SystemConfig(n=n, seed=1)
    rt2 = Runtime(cfg2, scheduler=SCHEDULERS["per-message"](cfg2))
    managers2 = {pid: BroadcastManager(rt2.host(pid)) for pid in cfg.pids}
    delivered2 = {pid: [] for pid in cfg.pids}
    for pid in cfg.pids:
        managers2[pid].subscribe(
            "x", lambda o, v, pid=pid: delivered2[pid].append(v)
        )
    host = rt2.host(1)
    for dst in cfg.pids:
        value = ("x", "A") if dst % 2 == 0 else ("x", "B")
        host.send(dst, ("b1", (1, "x", 0), value), "rb")
    rt2.run_to_quiescence()
    values = {v for msgs_ in delivered2.values() for v in msgs_}
    return msgs, ok, len(values)


def test_e10_broadcast(benchmark, emit):
    def experiment():
        return {n: _measure(n) for n in NS}

    measured = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = []
    for n, (msgs, ok, distinct) in measured.items():
        rows.append(
            [n, msgs, 2 * n * n + n, "yes" if ok else "NO", distinct]
        )
        assert msgs == 2 * n * n + n
        assert ok
        assert distinct <= 1
    emit(
        render_table(
            "E10 (Table 6): Reliable Broadcast cost + equivocation safety",
            ["n", "messages", "2n^2+n", "all delivered same", "values under equivocation"],
            rows,
            note="RB cost matches the analytic formula exactly; an "
            "equivocating origin never yields two delivered values",
        )
    )
