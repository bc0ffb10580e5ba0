#!/usr/bin/env python3
"""Batched agreement: K concurrent instances multiplexed on one runtime.

Production deployments of these primitives never run one agreement at a
time — common-subset layers run ``n`` parallel instances per block, and
Wang-style batched BA gets its amortized complexity from sharing the
expensive machinery across a batch.  ``run_byzantine_agreement_batch``
does exactly that on this stack:

* every instance is an instance-scoped ``ProtocolModule`` demuxed through
  per-instance dispatch slots — no per-instance topics, no extra runtimes;
* the broadcast/VSS substrate is built once and shared;
* the whole batch consults **one** shunning-coin invocation per round.  With the paper's SVSS coin a single
  invocation costs Θ(n²) sharings and dominates a run, so the batch pays
  the coin bill once instead of K times;
* under a fixed-delay scheduler each instance's decisions are *identical*
  to the sequential solo run on the same seed (the batch is an
  order-preserving interleaving of the solo event streams).

Run:  python examples/batched_agreement.py
"""

import time

from repro.analysis.tables import render_table
from repro.config import SystemConfig
from repro.core.api import run_byzantine_agreement, run_byzantine_agreement_batch
from repro.sim.experiments import Scenario, run_scenario
from repro.sim.scheduler import FifoScheduler


def main() -> None:
    n, k, seed = 4, 8, 7
    inputs = [[(i + shift) % 2 for i in range(n)] for shift in range(k)]

    # -- the paper's full stack, batched: one shared SVSS coin per round --
    start = time.perf_counter()
    batch = run_byzantine_agreement_batch(
        inputs,
        SystemConfig(n=n, seed=seed),
        coin="svss",
        scheduler=FifoScheduler(),
    )
    batch_wall = time.perf_counter() - start
    assert batch.agreed and batch.terminated

    # -- the same K agreements as sequential solo stacks ------------------
    start = time.perf_counter()
    solo_events = 0
    for index, row in enumerate(inputs):
        solo = run_byzantine_agreement(
            row,
            SystemConfig(n=n, seed=seed),
            coin="svss",
            scheduler=FifoScheduler(),
        )
        solo_events += solo.events_dispatched
        # Fixed delays + shared round coin => bit-identical decisions.
        assert solo.decisions == batch.results[("aba", index)].decisions
    solo_wall = time.perf_counter() - start

    rows = [
        [
            repr(iid),
            "".join(map(str, inputs[i])),
            result.decision,
            result.max_rounds,
        ]
        for i, (iid, result) in enumerate(batch.results.items())
    ]
    print(
        render_table(
            f"K={k} concurrent agreements, n={n}, shared SVSS round coin",
            ["instance", "inputs", "decision", "rounds"],
            rows,
            note=(
                f"batch: {batch.events_dispatched:,} events in {batch_wall:.2f}s "
                f"vs {k} solo stacks: {solo_events:,} events in {solo_wall:.2f}s"
            ),
        )
    )
    print(
        f"amortization   : {solo_events / batch.events_dispatched:.1f}x fewer "
        f"events, {solo_wall / batch_wall:.1f}x faster wall-clock"
    )

    # -- the experiments axis: batch is just another scenario field -------
    record = run_scenario(Scenario(n=7, seed=3, scheduler="fifo", batch=8))
    print(
        f"experiments    : Scenario(batch=8) -> {record.decided_instances} "
        f"decisions, {record.rounds} max rounds, "
        f"{record.decisions_per_wall_second:,.0f} decisions/sec"
    )


if __name__ == "__main__":
    main()
