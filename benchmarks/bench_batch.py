"""Batched-agreement benchmark — emits ``BENCH_batch.json``.

Measures the instance-multiplexing refactor end to end: ``K`` concurrent
agreement instances on one runtime (``run_byzantine_agreement_batch``,
shared round coin) against ``K`` sequential solo stacks.

1. **SVSS batch throughput** (the acceptance gate): aggregate decisions
   per second at ``n = 7`` for ``K ∈ {1, 4, 16}``, full shunning-coin
   stack, unit-delay network, ``TRACE_OFF``.  The sequential baseline's
   aggregate throughput is ``K`` decisions in ``K`` solo runs — i.e.
   ``1 / t_solo`` independent of ``K`` — so one timed solo run prices the
   whole baseline.  Gate: ``K = 16`` batched ≥ 2x sequential (measured
   headroom is ~an order of magnitude: the coin is ~97% of a solo run's
   events and the batch pays it once per round instead of per instance).
2. **Ideal-coin multiplexing overhead**: the same series with a free coin
   — there is nothing to amortize, so this pins the cost of multiplexing
   itself (expected ~1x, i.e. the demux layer is not a tax).
3. **Ideal-coin + vote coalescing**: the same free-coin series with
   ``coalesce_votes=True`` — all ``K`` instances' votes per
   (round, phase) ride one envelope per (src, dst) pair, so the batch
   dispatches roughly *one* instance's worth of events and the series
   turns ~K×-shaped.  This isolates the wire-coalescing win from the
   coin-amortization win.

The JSON artifact is committed at the repo root so the perf trajectory is
diffable across PRs, next to ``BENCH_algebra.json``.
"""

from __future__ import annotations

import time

from bench_common import bench_payload, best_of, fast_agreement, fast_batch, write_bench_json
from repro.analysis.tables import render_table

N = 7
KS = (1, 4, 16)
SEED = 3


def _solo(coin) -> float:
    start = time.perf_counter()
    fast_agreement(N, SEED, coin)
    return time.perf_counter() - start


def _batch(k: int, coin, coalesce: bool) -> tuple[float, int, int]:
    start = time.perf_counter()
    result = fast_batch(k, N, SEED, coin, coalesce_votes=coalesce)
    seconds = time.perf_counter() - start
    return seconds, result.events_dispatched, result.max_rounds


def _series(coin, repeats: int, coalesce: bool = False) -> dict:
    solo_seconds = best_of(lambda: _solo(coin), repeats=repeats)
    sequential_rate = 1.0 / solo_seconds  # K decisions / (K * t_solo)
    rows = []
    for k in KS:
        seconds, events, rounds = _batch(k, coin, coalesce)
        rows.append(
            {
                "k": k,
                "seconds": seconds,
                "events_dispatched": events,
                "max_rounds": rounds,
                "decisions_per_sec": k / seconds,
                "speedup_vs_sequential": (k / seconds) / sequential_rate,
            }
        )
    return {
        "solo_seconds": solo_seconds,
        "sequential_decisions_per_sec": sequential_rate,
        "coalesce_votes": coalesce,
        "batches": rows,
    }


def test_bench_batch(emit):
    svss = _series("svss", repeats=2)
    ideal = _series(("ideal", 1.0), repeats=3)
    ideal_coalesced = _series(("ideal", 1.0), repeats=3, coalesce=True)
    payload = bench_payload(
        {
            "n": N,
            "ks": list(KS),
            "scheduler": "FifoScheduler",
            "trace_level": "TRACE_OFF",
            "seed": SEED,
            "share_coin": True,
        },
        svss=svss,
        ideal=ideal,
        ideal_coalesced=ideal_coalesced,
    )
    path = write_bench_json("batch", payload)

    def table(title: str, series: dict) -> str:
        return render_table(
            title,
            ["K", "events", "rounds", "seconds", "decisions/s", "vs sequential"],
            [
                [
                    row["k"],
                    f"{row['events_dispatched']:,}",
                    row["max_rounds"],
                    f"{row['seconds']:.2f}",
                    f"{row['decisions_per_sec']:.2f}",
                    f"{row['speedup_vs_sequential']:.2f}x",
                ]
                for row in series["batches"]
            ],
            note=(
                f"sequential baseline: {series['solo_seconds']:.2f}s/solo run "
                f"= {series['sequential_decisions_per_sec']:.2f} decisions/s; "
                f"artifact: {path.name}"
            ),
        )

    emit(table(f"Batched agreement, SVSS shared round coin (n={N})", svss))
    emit(table(f"Batched agreement, ideal coin (multiplexing overhead, n={N})", ideal))
    emit(
        table(
            f"Batched agreement, ideal coin + coalesce_votes (n={N})",
            ideal_coalesced,
        )
    )

    # Acceptance gate of PR 3: K=16 batched >= 2x the aggregate
    # decisions/sec of 16 sequential stacks, full SVSS stack.
    k16 = next(row for row in svss["batches"] if row["k"] == 16)
    assert k16["speedup_vs_sequential"] >= 2.0, k16
    # The multiplexing layer itself must not tax the free-coin path by
    # more than dispatch noise.
    k1 = next(row for row in ideal["batches"] if row["k"] == 1)
    assert k1["speedup_vs_sequential"] >= 0.5, k1
    # Vote coalescing converts the free-coin series from flat to K-shaped:
    # the K=16 coalesced batch must dispatch close to one instance's worth
    # of events (<= 1/8 of the uncoalesced batch's bill).
    k16_off = next(row for row in ideal["batches"] if row["k"] == 16)
    k16_on = next(row for row in ideal_coalesced["batches"] if row["k"] == 16)
    assert k16_on["events_dispatched"] * 8 <= k16_off["events_dispatched"], (
        k16_off,
        k16_on,
    )
