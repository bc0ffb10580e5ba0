"""Batched-agreement benchmark — emits ``BENCH_batch.json``.

Counts what instance multiplexing costs: ``K`` concurrent agreement
instances on one runtime (``run_byzantine_agreement_batch``, shared round
coin) against one solo run, in *dispatched events* — same seed, same
count, on every host.  Wall-clock for batches is the end-to-end
benchmark's job (``benchmarks/e2e``, workload ``aba_ideal_k16``).

1. **SVSS shared coin** (the acceptance gate): ``n = 7``,
   ``K ∈ {1, 4, 16}``, full shunning-coin stack on the default transport.
   The coin is ~all of a solo run's events and the batch pays it once per
   round, and the ``K`` instances' votes ride one vector per origin and
   the envelopes the coin traffic already opens.  Gate: the ``K = 16``
   batch dispatches ≤ 1.1x one solo run's events (sequential stacks would
   dispatch 16x).
2. **Ideal coin, per message** (both packings split): a free coin,
   nothing to amortize and nothing packed, so the batch is ``K``
   interleaved solo streams.  Gate: ``K = 1`` dispatches exactly the solo
   run's events — the demux layer adds none.
3. **Ideal coin, default transport**: all ``K`` instances' votes per
   (round, phase) ride one ``("abav", ...)`` vector per origin, and what
   still shares a (src, dst) pair one envelope.  Gate: the ``K = 16``
   batch dispatches ≤ 1/8 of the per-message one.

The JSON artifact is committed at the repo root so the trajectory is
diffable across PRs, next to the other ``BENCH_*.json`` files.
"""

from __future__ import annotations

from bench_common import (
    bench_payload,
    fast_agreement,
    fast_batch,
    fifo,
    write_bench_json,
)
from repro.adversary.schedulers import per_message
from repro.analysis.tables import render_table

N = 7
KS = (1, 4, 16)
SEED = 3


def _series(coin, split=None) -> dict:
    solo = fast_agreement(N, SEED, coin, split=split)
    rows = []
    for k in KS:
        batch = fast_batch(k, N, SEED, coin, split=split)
        rows.append(
            {
                "k": k,
                "events_dispatched": batch.events_dispatched,
                "max_rounds": batch.max_rounds,
                "events_vs_solo": batch.events_dispatched / solo.events_dispatched,
            }
        )
    return {
        "solo_events_dispatched": solo.events_dispatched,
        "scheduler": fifo(split).describe(),
        "batches": rows,
    }


def _row(series: dict, k: int) -> dict:
    return next(row for row in series["batches"] if row["k"] == k)


def test_bench_batch(emit):
    svss = _series("svss")
    ideal_per_message = _series(("ideal", 1.0), split=per_message)
    ideal = _series(("ideal", 1.0))
    payload = bench_payload(
        {
            "n": N,
            "ks": list(KS),
            "seed": SEED,
        },
        svss=svss,
        ideal_per_message=ideal_per_message,
        ideal=ideal,
    )
    path = write_bench_json("batch", payload)

    def table(title: str, series: dict) -> str:
        return render_table(
            title,
            ["K", "events", "rounds", "vs one solo run"],
            [
                [
                    row["k"],
                    f"{row['events_dispatched']:,}",
                    row["max_rounds"],
                    f"{row['events_vs_solo']:.2f}x",
                ]
                for row in series["batches"]
            ],
            note=(
                f"one solo run: {series['solo_events_dispatched']:,} events "
                f"(K sequential stacks dispatch K x that); artifact: {path.name}"
            ),
        )

    emit(table(f"Batched agreement, SVSS shared round coin (n={N})", svss))
    emit(
        table(
            f"Batched agreement, ideal coin, per message (multiplexing overhead, n={N})",
            ideal_per_message,
        )
    )
    emit(table(f"Batched agreement, ideal coin, default transport (n={N})", ideal))

    # Acceptance gate of PR 3, in counts: 16 instances on the shared coin
    # cost about one solo run, not sixteen.
    k16 = _row(svss, 16)
    assert k16["events_dispatched"] <= 1.1 * svss["solo_events_dispatched"], k16
    # The multiplexing layer itself adds no event to the free-coin path.
    k1 = _row(ideal_per_message, 1)
    assert k1["events_dispatched"] == ideal_per_message["solo_events_dispatched"], k1
    # Vote packing converts the free-coin series from flat to K-shaped:
    # the default K=16 batch must dispatch close to one instance's worth
    # of events (<= 1/8 of the per-message batch's bill).
    k16_off, k16_on = _row(ideal_per_message, 16), _row(ideal, 16)
    assert k16_on["events_dispatched"] * 8 <= k16_off["events_dispatched"], (
        k16_off,
        k16_on,
    )
