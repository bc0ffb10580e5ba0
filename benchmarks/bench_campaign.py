"""Adversary campaign benchmark — emits ``BENCH_campaign.json``.

The robustness artifact: adversary x scheduler matrices run as monitored
sweeps (:func:`~repro.sim.experiments.scenario_matrix` with
``monitor=True``, one :func:`~repro.sim.experiments.run_matrix` call each,
cells by ``group_by("adversary", "scheduler")``).  Two matrices are
driven:

1. **Main matrix** (ideal coin, n = 4): every adversary family of the
   engine — static random, adaptive traffic-observing, slot-targeted
   vector poisoning, crash→recover→crash — against the protocol-aware
   schedules (vote balancing, coin-reveal eclipse, intermittent
   partition) and the packing-vetoing ones (``env-split``,
   ``slot-split``, and ``per-message``: both vetoes, the paper's literal
   wire), 20 seeds per cell.  How much the transport packs is a property
   of the schedule; there is no aggregation axis beside it.
2. **SVSS sub-block** (real coin, n = 4): the aggregation-sensitive
   adversaries under ``uniform`` and the same three split cells, a few
   seeds per cell — the slow cells that make the coin's transport claims
   checkable end to end.

Acceptance gates:

* zero :class:`~repro.sim.monitor.InvariantViolation` records across every
  honest-majority cell of both matrices (the paper's safety claims are
  unconditional, so one red cell is a bug, not noise);
* every cell decides every seed (agreement rate 1.0);
* the *negative* fixture — a liveness watchdog bound of 0 — does fire, so
  a clean sweep is evidence the monitor watched, not that it slept.

The JSON artifact is committed at the repo root so the robustness
trajectory is diffable across PRs, next to the other ``BENCH_*.json``.  It
holds verdicts and counts only: no wall-clock field.  Each cell's summed
events and logical messages are same-seed counts, so regenerating the file
on a change that moves no run leaves it byte-identical.
"""

from __future__ import annotations

import os

from bench_common import bench_payload, write_bench_json
from repro.sim.experiments import (
    Scenario,
    SweepResult,
    run_matrix,
    run_scenario,
    scenario_matrix,
)

#: CI's campaign smoke job sets this to run the same matrices on fewer
#: seeds per cell; the gates (zero violations, rate 1.0, negative fixture)
#: are identical either way.
SMOKE = os.environ.get("REPRO_CAMPAIGN_SMOKE") == "1"
SEED_COUNT = 6 if SMOKE else 20
SVSS_SEED_COUNT = 2 if SMOKE else 3

MAIN_MATRIX = dict(
    ns=(4,),
    adversaries=(
        "none",
        "random",
        "adaptive-crash",
        "slot-poison",
        "crash-recover",
    ),
    schedulers=(
        "uniform",
        "vote-balancing",
        "eclipse",
        "partition",
        "env-split",
        "slot-split",
        "per-message",
    ),
    seeds=range(SEED_COUNT),
    coin=("ideal", 1.0),
    monitor=True,
    round_bound=80,
)

SVSS_MATRIX = dict(
    ns=(4,),
    adversaries=("none", "random", "slot-poison", "crash-recover"),
    schedulers=("uniform", "env-split", "slot-split", "per-message"),
    seeds=range(SVSS_SEED_COUNT),
    coin="svss",
    monitor=True,
    round_bound=250,
    max_rounds=300,
)


#: A campaign cell: the records of one (adversary, scheduler) pair.
CELL = ("adversary", "scheduler")


def _cell_rows(sweep: SweepResult) -> list[dict]:
    return [
        {
            "adversary": adversary,
            "scheduler": scheduler,
            "runs": len(cell),
            "agreement_rate": cell.agreement_rate,
            "mean_rounds": cell.summary("rounds").mean,
            "violations": [r.invariant_violation for r in cell.violations],
            "coin_agreed": sum(r.coin_agreed for r in cell.records),
            "coin_split": sum(r.coin_split for r in cell.records),
            "shun_pairs": sum(r.shun_pairs for r in cell.records),
            # Same-seed counts: a change that moves any run of the cell
            # moves these, so a regenerated artifact shows it.
            "events": sum(r.events_dispatched for r in cell.records),
            "logical_messages": sum(r.logical_messages for r in cell.records),
        }
        for (adversary, scheduler), cell in sweep.group_by(*CELL).items()
    ]


def _section(sweep: SweepResult) -> dict:
    return {
        "runs": len(sweep),
        "cells": _cell_rows(sweep),
        "ok": not sweep.violations,
        "workers": sweep.workers,
    }


def _negative_fixture() -> dict:
    """Prove the monitor fires: an impossible liveness bound must violate."""
    record = run_scenario(
        Scenario(n=4, seed=0, inputs="split", monitor=True, round_bound=0)
    )
    assert record.invariant_violation is not None, (
        "negative fixture failed: round_bound=0 run produced no violation"
    )
    assert record.invariant_violation.startswith("[liveness]")
    assert not record.agreed
    return {
        "round_bound": 0,
        "violation": record.invariant_violation,
        "fired": True,
    }


def test_bench_campaign(emit):
    main = run_matrix(scenario_matrix(**MAIN_MATRIX))
    svss = run_matrix(scenario_matrix(**SVSS_MATRIX))
    negative = _negative_fixture()

    payload = bench_payload(
        {
            "n": 4,
            "smoke": SMOKE,
            "main_matrix": {
                k: (list(v) if isinstance(v, (tuple, range)) else v)
                for k, v in MAIN_MATRIX.items()
            },
            "svss_matrix": {
                k: (list(v) if isinstance(v, (tuple, range)) else v)
                for k, v in SVSS_MATRIX.items()
            },
            "gates": [
                "zero invariant violations across every cell of both "
                "matrices",
                "agreement rate 1.0 in every cell",
                "the negative liveness fixture fires",
            ],
        },
        main=_section(main),
        svss=_section(svss),
        negative_fixture=negative,
    )
    path = write_bench_json("campaign", payload)

    emit(main.table(*CELL, title="Adversary campaign: ideal coin, n=4"))
    emit(svss.table(*CELL, title="Adversary campaign: SVSS coin sub-block, n=4"))
    emit(
        f"negative fixture: {negative['violation']!r} (fired as required); "
        f"artifact: {path.name}"
    )

    for sweep in (main, svss):
        # Gate 1: the paper's safety claims are unconditional — any
        # violation in an honest-majority cell is a protocol bug.
        assert not sweep.violations, [
            (r.scenario, r.invariant_violation) for r in sweep.violations
        ]
        # Gate 2: every seeded run in every cell decided.
        for key, cell in sweep.group_by(*CELL).items():
            assert cell.agreement_rate == 1.0, (key, cell.records)
        # Sanity: the matrices really were monitored end to end.
        assert all(r.monitored for r in sweep.records)
    # Gate 3 already asserted inside the fixture; record it for the reader.
    assert negative["fired"]
