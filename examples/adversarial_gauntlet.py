#!/usr/bin/env python3
"""Adversarial gauntlet: agreement under every attack in the library.

Runs Byzantine agreement repeatedly, each time against a different
byzantine behaviour and an aggressive network schedule, and reports the
outcome.  Agreement and validity are safety properties: they must hold in
*every* run, not just on average.

The second half runs a *monitored sweep* (:mod:`repro.sim.experiments`):
the same question asked systematically — adversary families x
protocol-aware schedules (one of them the per-message wire), with the
runtime invariant monitor armed on every run.

Run:  python examples/adversarial_gauntlet.py
"""

import random

from repro import SystemConfig, run_byzantine_agreement
from repro.adversary.behaviors import (
    ABALiarBehavior,
    CrashBehavior,
    MutatingBehavior,
    SilentBehavior,
)
from repro.adversary.controller import Adversary
from repro.adversary.schedulers import VoteBalancingScheduler
from repro.analysis.tables import render_table
from repro.sim.scheduler import ExponentialDelayScheduler

GAUNTLET = [
    ("no faults", lambda seed: None),
    ("crash after 50 msgs", lambda seed: Adversary({4: CrashBehavior(50)})),
    ("silent process", lambda seed: Adversary({2: SilentBehavior()})),
    (
        "message mutator (40%)",
        lambda seed: Adversary({3: MutatingBehavior(random.Random(seed), 0.4)}),
    ),
    (
        "agreement liar",
        lambda seed: Adversary({1: ABALiarBehavior(random.Random(seed))}),
    ),
]


def main() -> None:
    config_proto = SystemConfig(n=7, seed=0)
    print(
        f"gauntlet: n={config_proto.n}, t={config_proto.t}, split inputs, "
        "ideal common coin, hostile schedules"
    )
    rows = []
    for name, factory in GAUNTLET:
        for sched_name in ("exponential", "vote-balancing"):
            outcomes = []
            for seed in range(5):
                config = SystemConfig(n=7, seed=seed)
                scheduler = (
                    ExponentialDelayScheduler(config.derive_rng("g"), mean=3.0)
                    if sched_name == "exponential"
                    else VoteBalancingScheduler(config)
                )
                result = run_byzantine_agreement(
                    [0, 1, 0, 1, 0, 1, 0],
                    config,
                    coin=("ideal", 1.0),
                    adversary=factory(seed),
                    scheduler=scheduler,
                )
                assert result.terminated and result.agreed, (
                    f"SAFETY VIOLATION under {name}/{sched_name}"
                )
                outcomes.append(result.max_rounds)
            rows.append(
                [
                    name,
                    sched_name,
                    "5/5 agreed",
                    f"{min(outcomes)}-{max(outcomes)}",
                ]
            )
    print()
    print(
        render_table(
            "adversarial gauntlet (all runs must agree)",
            ["adversary", "schedule", "outcome", "rounds"],
            rows,
        )
    )

    # -- campaign slice: the systematic version of the loop above ----------
    from repro.sim.experiments import run_matrix, scenario_matrix

    print()
    print(
        "campaign slice: n=4, invariant monitor armed on every run "
        "(adaptive corruption, slot poisoning, crash-recovery, reveal "
        "eclipse)"
    )
    campaign = run_matrix(
        scenario_matrix(
            ns=(4,),
            adversaries=("none", "adaptive-crash", "slot-poison", "crash-recover"),
            schedulers=("uniform", "vote-balancing", "eclipse", "per-message"),
            seeds=range(4),
            monitor=True,
            round_bound=80,
        )
    )
    print()
    print(
        campaign.table(
            "adversary",
            "scheduler",
            title="campaign slice (monitored; zero violations expected)",
        )
    )
    assert not campaign.violations, [
        (r.scenario, r.invariant_violation) for r in campaign.violations
    ]


if __name__ == "__main__":
    main()
