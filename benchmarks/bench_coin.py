"""SVSS common-coin benchmark — emits ``BENCH_coin.json``.

Measures the two transport layers on their natural worst case: one
shunning-common-coin invocation runs n² concurrent per-slot MW-SVSS
sessions whose echo/ack/confirm traffic crosses the same (src, dst) pairs
within the same protocol steps.  PR 4's wire coalescing collapsed the
*event* bill (one envelope per pair per step); PR 5's session-vector
aggregation collapses the *logical message* bill itself (one
``("svec", ...)`` message per (step, dealer-group) instead of n
per-session messages, and one reliable broadcast per (step, origin)
instead of one per vector, ~n⁴ → ~n³).  For ``n ∈ {4, 5, 7}`` this times one
complete invocation (share + reveal, unit-delay FIFO network,
``TRACE_OFF``) across the full ``svec on/off × coalesce on/off`` matrix
and records, per mode:

1. **Logical messages** — via ``bench_common.logical_messages`` (envelope
   framing removed; a slot-vector counts as one).  Acceptance gate:
   ≥4× fewer logical messages at ``n = 7`` with svec on (measured 7.7×
   without coalescing, where every event is its own step; 46× with it).
2. **Events per invocation** — the PR-4 gate stays: ≥2× fewer dispatched
   events at ``n = 7`` with coalescing on (measured >60×).
3. **Wall-clock per invocation** — single-shot seconds, recorded for the
   trajectory.  Acceptance gate: the n=7 svec+coalesce invocation
   finishes in under 10s (was ~17s before batched ingestion).
4. **DMM verdict calls per invocation** — the per-slot-handler-work
   metric of vector ingestion: grouping a slot-vector's sibling
   sessions behind one group-level ``filter_verdict`` probe replaces n
   per-slot calls with one (plus per-slot fallbacks only on
   divergence).  The denominator is the ``coalesce`` mode, where every
   value message takes the per-slot ``VSSManager._ingest`` path on the
   same enveloped wire.  Acceptance gate: ≥3× fewer verdict calls at
   ``n = 7`` with vectors on.
5. **Equivalence** — the coin outputs of every process must be identical
   across all modes (both transports are output-pure under fixed-delay
   schedulers).

``n = 10`` runs the svec modes only and is gated on *finishing*: its
uncoalesced per-session baseline exceeds the runtime's 50M-event livelock
guard (the problem this layer attacks), and even enveloped its ~105M
logical messages are outside a CI budget — aggregated, the same
invocation is ~1.6M logical messages on ~850k coalesced events and
completes in about a minute.

Every mode pins ``algebra_backend="pure"`` so the transport trajectory
stays backend-stable; the ``svec_coalesce_numpy`` mode re-runs the full
aggregation stack on the vectorized algebra backend
(``repro.field.backend``) and is asserted bit-identical.  ``n = 16`` is
the backend PR's headline: the first finite invocation at that size —
``svec+coalesce`` under both backends, gated on finishing
under the event guard with identical outputs (skipped, like the numpy
mode, when numpy is not importable).

The JSON artifact is committed at the repo root so the perf trajectory is
diffable across PRs, next to the other ``BENCH_*.json`` files.
"""

from __future__ import annotations

import gc
import time

from bench_common import (
    bench_payload,
    fast_coin_flip,
    logical_messages,
    write_bench_json,
)
from repro.analysis.tables import render_table
from repro.field import numpy_available
from repro.sim.runtime import DEFAULT_MAX_EVENTS

NS = (4, 5, 7)
N_LARGE = 10
N_XL = 16
SEED = 5
GATE_N = 7
GATE_EVENTS_REDUCTION = 2.0  # coalesce gate (PR 4)
GATE_LOGICAL_REDUCTION = 4.0  # svec gate (PR 5)
GATE_VERDICT_REDUCTION = 3.0  # batched-ingestion gate (PR 8)
GATE_SECONDS = 10.0  # n=7 svec+coalesce wall-clock gate (PR 8)

#: mode name -> fast_coin_flip kwargs; the svec on/off × coalesce on/off
#: matrix.  At N_LARGE only the aggregated modes are feasible.
#: Declaration order is measurement order: the aggregated modes run
#: FIRST at each n so the wall-clock gate isn't poisoned by the heap a
#: preceding per-session n=7 run leaves behind (allocator fragmentation
#: after a ~9M-logical-message run costs the next run ~2×).
MODES = {
    "svec_coalesce": {"svec": True, "coalesce": True, "algebra_backend": "pure"},
    "svec_coalesce_numpy": {"svec": True, "coalesce": True, "algebra_backend": "numpy"},
    "svec": {"svec": True, "algebra_backend": "pure"},
    "coalesce": {"coalesce": True, "algebra_backend": "pure"},
    "plain": {"algebra_backend": "pure"},
}
LARGE_MODES = ("svec", "svec_coalesce", "svec_coalesce_numpy")
#: n = 16: the aggregated+vectorized frontier, both backends A/B'd.
XL_MODES = ("svec_coalesce", "svec_coalesce_numpy")


def _active_modes() -> dict[str, dict]:
    """The mode matrix, minus numpy modes when numpy is absent."""
    if numpy_available():
        return MODES
    return {k: v for k, v in MODES.items() if v.get("algebra_backend") != "numpy"}


def _measure(n: int, mode: str) -> tuple[dict, dict]:
    # Start every mode from a collected heap so timings are per-mode,
    # not a function of what the previous invocation left uncollected.
    gc.collect()
    start = time.perf_counter()
    result = fast_coin_flip(n, SEED, **MODES[mode])
    seconds = time.perf_counter() - start
    record = {
        "seconds": seconds,
        "events_dispatched": result.events_dispatched,
        "messages_pushed": result.messages_pushed,
        "logical_messages": logical_messages(result),
        "envelopes_pushed": result.envelopes_pushed,
        "payloads_coalesced": result.payloads_coalesced,
        "svec_packed": result.svec_packed,
        "svec_slots": result.svec_slots,
        "svec_batch_ingested": result.svec_batch_ingested,
        "dmm_verdicts_batched": result.dmm_verdicts_batched,
        "dmm_verdict_fallbacks": result.dmm_verdict_fallbacks,
        "dmm_verdict_calls": result.dmm_verdict_calls,
        "algebra_backend": result.algebra_backend,
        "rows_vectorized": result.rows_vectorized,
        "backend_fallbacks": result.backend_fallbacks,
    }
    return record, dict(result.outputs)


def _series() -> list[dict]:
    rows = []
    for n in NS:
        row: dict = {"n": n}
        outputs: dict[str, dict] = {}
        for mode in _active_modes():
            row[mode], outputs[mode] = _measure(n, mode)
        # Both transports are output-pure: same coin bits in every mode.
        assert all(out == outputs["plain"] for out in outputs.values()), row
        row["outputs_identical"] = True
        row["events_reduction"] = (
            row["plain"]["events_dispatched"]
            / row["coalesce"]["events_dispatched"]
        )
        row["logical_reduction"] = (
            row["plain"]["logical_messages"] / row["svec"]["logical_messages"]
        )
        row["wall_clock_speedup"] = (
            row["plain"]["seconds"] / row["svec_coalesce"]["seconds"]
        )
        row["verdict_calls_reduction"] = (
            row["coalesce"]["dmm_verdict_calls"]
            / row["svec_coalesce"]["dmm_verdict_calls"]
        )
        rows.append(row)
    return rows


def _large_row() -> dict:
    """The n = 10 coin, aggregated modes only (see the module docstring)."""
    row: dict = {
        "n": N_LARGE,
        "plain": "infeasible: uncoalesced baseline exceeds the 50M-event "
        "livelock guard",
        "coalesce": "infeasible in CI budget: ~105M logical messages still "
        "traverse their handlers",
    }
    outputs: dict[str, dict] = {}
    modes = [m for m in LARGE_MODES if m in _active_modes()]
    for mode in modes:
        row[mode], outputs[mode] = _measure(N_LARGE, mode)
        assert row[mode]["events_dispatched"] < DEFAULT_MAX_EVENTS, row
    assert all(out == outputs["svec"] for out in outputs.values()), row
    row["outputs_identical"] = True
    return row


def _xl_row() -> dict | None:
    """The first finite n = 16 coin: aggregated transport, both backends.

    Returns None without numpy — the A/B (and the wall-clock budget this
    row exists to demonstrate) needs the vectorized backend present.
    """
    if not numpy_available():
        return None
    row: dict = {
        "n": N_XL,
        "plain": "infeasible: uncoalesced baseline exceeds the 50M-event "
        "livelock guard",
    }
    outputs: dict[str, dict] = {}
    for mode in XL_MODES:
        row[mode], outputs[mode] = _measure(N_XL, mode)
        assert row[mode]["events_dispatched"] < DEFAULT_MAX_EVENTS, row
    # Bit-identical across backends: the vectorized algebra changes
    # wall-clock and the rows_vectorized counter, never a coin bit.
    assert outputs["svec_coalesce"] == outputs["svec_coalesce_numpy"], row
    assert row["svec_coalesce_numpy"]["rows_vectorized"] > 0, row
    row["outputs_identical"] = True
    return row


def test_bench_coin(emit):
    series = _series()
    large = _large_row()
    xl = _xl_row()
    payload = bench_payload(
        {
            "ns": [*NS, N_LARGE] + ([N_XL] if xl else []),
            "scheduler": "FifoScheduler",
            "trace_level": "TRACE_OFF",
            "seed": SEED,
            "modes": {name: dict(kw) for name, kw in _active_modes().items()},
            "gates": [
                f">= {GATE_LOGICAL_REDUCTION}x fewer logical messages at "
                f"n={GATE_N} with svec on",
                f">= {GATE_EVENTS_REDUCTION}x fewer events at n={GATE_N} "
                "with coalescing on",
                f">= {GATE_VERDICT_REDUCTION}x fewer DMM verdict calls at "
                f"n={GATE_N} with svec on (vs coalesce alone)",
                f"n={GATE_N} svec+coalesce invocation under "
                f"{GATE_SECONDS:.0f}s wall-clock",
                f"n={N_LARGE} aggregated run finishes under the "
                f"{DEFAULT_MAX_EVENTS // 10**6}M-event guard",
                "coin outputs bit-identical pure vs numpy at every "
                "benched n (numpy present)",
                f"n={N_XL} svec+coalesce invocation finite "
                "on both backends (numpy present)",
            ],
        },
        invocations=[*series, large] + ([xl] if xl else []),
    )
    path = write_bench_json("coin", payload)

    table_rows = [
        [
            row["n"],
            f"{row['plain']['logical_messages']:,}",
            f"{row['svec']['logical_messages']:,}",
            f"{row['logical_reduction']:.1f}x",
            f"{row['svec_coalesce']['events_dispatched']:,}",
            f"{row['coalesce']['dmm_verdict_calls']:,}",
            f"{row['svec_coalesce']['dmm_verdict_calls']:,}",
            f"{row['verdict_calls_reduction']:.1f}x",
            f"{row['plain']['seconds']:.2f}",
            f"{row['svec_coalesce']['seconds']:.2f}",
            f"{row['wall_clock_speedup']:.2f}x",
        ]
        for row in series
    ]
    table_rows.append(
        [
            large["n"],
            "> 50M events",
            f"{large['svec']['logical_messages']:,}",
            "-",
            f"{large['svec_coalesce']['events_dispatched']:,}",
            "-",
            f"{large['svec_coalesce']['dmm_verdict_calls']:,}",
            "-",
            "-",
            f"{large['svec_coalesce']['seconds']:.2f}",
            "-",
        ]
    )
    if xl:
        table_rows.append(
            [
                xl["n"],
                "> 50M events",
                f"{xl['svec_coalesce']['logical_messages']:,}",
                "-",
                f"{xl['svec_coalesce']['events_dispatched']:,}",
                "-",
                f"{xl['svec_coalesce']['dmm_verdict_calls']:,}",
                "-",
                f"{xl['svec_coalesce']['seconds']:.2f}",
                f"{xl['svec_coalesce_numpy']['seconds']:.2f}",
                "-",
            ]
        )
    emit(
        render_table(
            "SVSS common coin: svec/coalesce matrix",
            ["n", "logical plain", "logical svec", "reduction",
             "events svec+coal", "verdicts per-slot", "verdicts svec",
             "verdict redux", "s plain", "s svec+coal", "speedup"],
            table_rows,
            note=(
                "full share+reveal, unit-delay FIFO, TRACE_OFF; outputs "
                "identical across modes (incl. pure vs numpy algebra) at "
                f"every n; n={N_XL} row shows pure / numpy seconds; "
                f"artifact: {path.name}"
            ),
        )
    )

    # Acceptance gates of PR 8 (batched ingestion), PR 5 (svec), PR 4
    # (coalesce).
    gate_row = next(row for row in series if row["n"] == GATE_N)
    assert gate_row["logical_reduction"] >= GATE_LOGICAL_REDUCTION, gate_row
    assert gate_row["events_reduction"] >= GATE_EVENTS_REDUCTION, gate_row
    assert gate_row["verdict_calls_reduction"] >= GATE_VERDICT_REDUCTION, (
        gate_row
    )
    assert gate_row["svec_coalesce"]["seconds"] < GATE_SECONDS, gate_row
    for row in series:
        assert row["outputs_identical"], row
        # Both layers must actually carry traffic (not degenerate wins).
        assert row["svec"]["svec_slots"] > row["svec"]["svec_packed"] > 0
        assert (
            row["coalesce"]["payloads_coalesced"]
            > row["coalesce"]["envelopes_pushed"]
            > 0
        )
        # Vector ingestion must actually engage — and without vectors
        # every message stays on the per-slot path (the ratio is real).
        assert row["svec_coalesce"]["svec_batch_ingested"] > 0
        assert row["svec_coalesce"]["dmm_verdicts_batched"] > 0
        assert row["coalesce"]["svec_batch_ingested"] == 0
        # The vectorized backend must actually engage where present (the
        # outputs_identical assertion above already proved it harmless).
        if "svec_coalesce_numpy" in row:
            assert row["svec_coalesce_numpy"]["rows_vectorized"] > 0, row
            assert row["svec_coalesce"]["rows_vectorized"] == 0, row
    # The headline structural claim: the n = 10 coin is routinely benchable.
    assert large["outputs_identical"]
    assert large["svec_coalesce"]["events_dispatched"] < DEFAULT_MAX_EVENTS
    # The backend PR's headline: a finite n = 16 invocation, bit-identical
    # across backends (asserted inside _xl_row).
    if xl:
        assert xl["outputs_identical"]
        for mode in XL_MODES:
            assert xl[mode]["events_dispatched"] < DEFAULT_MAX_EVENTS
