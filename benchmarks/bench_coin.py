"""SVSS common-coin benchmark — emits ``BENCH_coin.json``.

Measures the two transport layers on their natural worst case: one
shunning-common-coin invocation runs n² concurrent per-slot MW-SVSS
sessions whose echo/ack/confirm traffic crosses the same (src, dst) pairs
within the same protocol steps.  PR 4's wire coalescing collapsed the
*event* bill (one envelope per pair per step); PR 5's session-vector
aggregation collapses the *logical message* bill itself (one
``("svec", ...)`` message per (step, dealer-group) instead of n
per-session messages, and one reliable broadcast per (step, origin)
instead of one per vector, ~n⁴ → ~n³).  Both are the transport now, with
no keyword beside them; what switches them off is the scheduler.  For
``n ∈ {4, 5, 7}`` this runs one complete invocation (share + reveal,
unit-delay FIFO network) as it runs by default, with slots
split (``SlotSplit(fifo)``: envelopes only) and with both packings split
(``SlotSplit(EnvSplit(fifo))``: the paper's literal per-message wire), and
records, per mode:

1. **Logical messages** — via ``bench_common.logical_messages`` (envelope
   framing removed; a slot-vector counts as one).  Acceptance gate:
   ≥4× fewer logical messages at ``n = 7`` than per message (measured 46×).
2. **Events per invocation** — the PR-4 gate stays: ≥2× fewer dispatched
   events at ``n = 7`` with envelopes alone than per message (measured
   >60×).
3. **DMM verdict calls per invocation** — the per-slot-handler-work
   metric of vector ingestion: grouping a slot-vector's sibling
   sessions behind one group-level ``filter_verdict`` probe replaces n
   per-slot calls with one (plus per-slot fallbacks only on
   divergence).  The denominator is the ``slot_split`` mode, where every
   value message takes the per-slot ``VSSManager._ingest`` path on the
   same enveloped wire.  Acceptance gate: ≥3× fewer verdict calls at
   ``n = 7`` by default.
4. **Equivalence** — the coin outputs of every process must be identical
   across all modes (both transports are output-pure under fixed-delay
   schedulers).
5. **The bills do not move** — the ``per_message`` and ``default`` rows
   must repeat the committed artifact's ``events_dispatched`` /
   ``logical_messages`` / ``dmm_verdict_calls`` exactly, before the file
   is rewritten.  The ``per_message`` rows were first written by
   ``coalesce=False, svec=False`` (as ``plain``) when the keywords
   existed; they are the paper's literal message count and the one thing
   here no optimisation may change.  The ``default`` rows are the wire
   every entry point runs: a change that means to move them says so by
   committing the new rows.

No seconds are recorded: one wall-clock sample on a shared machine decides
nothing, and ``benchmarks/e2e`` judges seconds on repeated fresh-process
samples.

``n = 10`` runs the default only and is gated on *finishing*: per message
it exceeds the runtime's 50M-event livelock guard (the problem this layer
attacks), and even enveloped its ~105M logical messages are outside a CI
budget — aggregated, the same invocation is ~1.6M logical messages on
~850k coalesced events and completes in about a minute.

The JSON artifact is committed at the repo root so the perf trajectory is
diffable across PRs, next to the other ``BENCH_*.json`` files.
"""

from __future__ import annotations

import gc
import json

from bench_common import (
    REPO_ROOT,
    bench_payload,
    fast_coin_flip,
    fifo,
    logical_messages,
    write_bench_json,
)
from repro.adversary.schedulers import SlotSplittingScheduler, per_message
from repro.analysis.tables import render_table
from repro.sim.runtime import DEFAULT_MAX_EVENTS

NS = (4, 5, 7)
N_LARGE = 10
SEED = 5
GATE_N = 7
GATE_EVENTS_REDUCTION = 2.0  # coalesce gate (PR 4)
GATE_LOGICAL_REDUCTION = 4.0  # svec gate (PR 5)
GATE_VERDICT_REDUCTION = 3.0  # batched-ingestion gate (PR 8)

#: mode name -> fast_coin_flip kwargs (``split`` wraps the FIFO scheduler).
#: At N_LARGE and beyond only the default is feasible.
#: Declaration order is measurement order.
MODES = {
    "default": {},
    "slot_split": {"split": SlotSplittingScheduler},
    "per_message": {"split": per_message},
}
#: The modes whose counts must repeat the committed file's, and the counts.
BILLED_MODES = ("per_message", "default")
BILL = ("events_dispatched", "logical_messages", "dmm_verdict_calls")


def _bill(row: dict) -> dict:
    """mode -> the gated counts of one n's row."""
    return {mode: {name: row[mode][name] for name in BILL} for mode in BILLED_MODES}


def _committed_bills() -> dict[int, dict]:
    """n -> the billed modes' counts in the committed artifact."""
    with open(REPO_ROOT / "BENCH_coin.json") as handle:
        committed = json.load(handle)
    return {
        row["n"]: _bill(row)
        for row in committed["invocations"]
        if isinstance(row["per_message"], dict)
    }


def _measure(n: int, mode: str) -> tuple[dict, dict]:
    # Start every mode from a collected heap: no invocation runs on what
    # the previous one left uncollected.
    gc.collect()
    result = fast_coin_flip(n, SEED, **MODES[mode])
    record = {
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
    }
    return record, dict(result.outputs)


def _series() -> list[dict]:
    rows = []
    for n in NS:
        row: dict = {"n": n}
        outputs: dict[str, dict] = {}
        for mode in MODES:
            row[mode], outputs[mode] = _measure(n, mode)
        # Both transports are output-pure: same coin bits in every mode.
        assert all(out == outputs["per_message"] for out in outputs.values()), row
        row["outputs_identical"] = True
        row["events_reduction"] = (
            row["per_message"]["events_dispatched"]
            / row["slot_split"]["events_dispatched"]
        )
        row["logical_reduction"] = (
            row["per_message"]["logical_messages"]
            / row["default"]["logical_messages"]
        )
        row["verdict_calls_reduction"] = (
            row["slot_split"]["dmm_verdict_calls"]
            / row["default"]["dmm_verdict_calls"]
        )
        rows.append(row)
    return rows


def _frontier_row(n: int) -> dict:
    """The n = 10 coin: the default only (see the module docstring)."""
    row: dict = {
        "n": n,
        "per_message": "infeasible: the per-message run exceeds the "
        "50M-event livelock guard",
    }
    row["default"], _ = _measure(n, "default")
    return row


def test_bench_coin(emit):
    committed_bills = _committed_bills()
    series = _series()
    # Gate 5, before anything is written: the paper's literal bill and
    # the default wire's.
    for row in series:
        assert _bill(row) == committed_bills[row["n"]], (row["n"], _bill(row))
    large = _frontier_row(N_LARGE)
    payload = bench_payload(
        {
            "ns": [*NS, N_LARGE],
            "seed": SEED,
            "modes": {
                name: {"scheduler": fifo(kw.get("split")).describe()}
                for name, kw in MODES.items()
            },
            "gates": [
                f">= {GATE_LOGICAL_REDUCTION}x fewer logical messages at "
                f"n={GATE_N} by default than per message",
                f">= {GATE_EVENTS_REDUCTION}x fewer events at n={GATE_N} "
                "with envelopes alone than per message",
                f">= {GATE_VERDICT_REDUCTION}x fewer DMM verdict calls at "
                f"n={GATE_N} by default (vs slots split)",
                f"n={N_LARGE} default run finishes under the "
                f"{DEFAULT_MAX_EVENTS // 10**6}M-event guard",
                "per_message and default events / logical messages / "
                f"verdict calls equal the committed rows at n in {list(NS)}",
            ],
        },
        invocations=[*series, large],
    )
    path = write_bench_json("coin", payload)

    table_rows = [
        [
            row["n"],
            f"{row['per_message']['logical_messages']:,}",
            f"{row['default']['logical_messages']:,}",
            f"{row['logical_reduction']:.1f}x",
            f"{row['default']['events_dispatched']:,}",
            f"{row['slot_split']['dmm_verdict_calls']:,}",
            f"{row['default']['dmm_verdict_calls']:,}",
            f"{row['verdict_calls_reduction']:.1f}x",
        ]
        for row in series
    ]
    table_rows.append(
        [
            large["n"],
            "> 50M events",
            f"{large['default']['logical_messages']:,}",
            "-",
            f"{large['default']['events_dispatched']:,}",
            "-",
            f"{large['default']['dmm_verdict_calls']:,}",
            "-",
        ]
    )
    emit(
        render_table(
            "SVSS common coin: default vs the splitting schedulers",
            ["n", "logical per-msg", "logical default", "reduction",
             "events default", "verdicts slot-split", "verdicts default",
             "verdict redux"],
            table_rows,
            note=(
                "full share+reveal, unit-delay FIFO; outputs "
                f"identical across modes at every n; artifact: {path.name}"
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
    for row in series:
        assert row["outputs_identical"], row
        # Both layers must actually carry traffic (not degenerate wins) ...
        assert row["default"]["svec_slots"] > row["default"]["svec_packed"] > 0
        assert (
            row["slot_split"]["payloads_coalesced"]
            > row["slot_split"]["envelopes_pushed"]
            > 0
        )
        # ... and the vetoes must actually strip them.
        assert row["slot_split"]["svec_packed"] == 0
        assert row["per_message"]["svec_packed"] == 0
        assert row["per_message"]["envelopes_pushed"] == 0
        # Vector ingestion must actually engage — and without vectors
        # every message stays on the per-slot path (the ratio is real).
        assert row["default"]["svec_batch_ingested"] > 0
        assert row["default"]["dmm_verdicts_batched"] > 0
        assert row["slot_split"]["svec_batch_ingested"] == 0
    # The headline structural claim: the n = 10 coin is routinely benchable.
    assert large["default"]["events_dispatched"] < DEFAULT_MAX_EVENTS, large
