#!/usr/bin/env python3
"""Experiment sweeps: thousand-run scenario matrices in one call.

The paper's guarantees are statistical, so checking them means running the
protocol many times under many adversarial conditions.  The harness in
``repro.sim.experiments`` fans a ``n x scheduler x adversary x seed``
matrix across worker processes and aggregates the results into the
statistics tables the analysis layer provides.

Every run counts its logical messages and shun pairs (there is no
accounting switch), so each record carries them next to its run counters.

Run:  python examples/experiment_sweep.py [workers]
"""

import sys

from repro.sim.experiments import run_matrix, scenario_matrix


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else None

    # 720 seeded agreement runs: 2 sizes x 3 network schedules x
    # 3 corruption patterns x 40 seeds, ideal coin (the large-n stand-in).
    matrix = scenario_matrix(
        ns=(4, 7),
        schedulers=("fifo", "uniform", "partition"),
        adversaries=("none", "silent-one", "crash-one"),
        seeds=range(40),
    )
    print(f"sweeping {len(matrix)} scenarios...")
    sweep = run_matrix(matrix, workers=workers)

    print()
    print(sweep.table())
    print()
    low, high = sweep.agreement_ci95()
    print(f"agreement rate : {sweep.agreement_rate:.4f}  CI95 [{low:.3f}, {high:.3f}]")
    for (n,), group in sweep.group_by("n").items():
        print(f"messages, n={n:<2} : {group.summary('total_messages').mean:,.0f} mean per run")


if __name__ == "__main__":
    main()
