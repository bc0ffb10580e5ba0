"""Adversary campaign benchmark — emits ``BENCH_campaign.json``.

The robustness artifact: the full adversary-campaign matrix (see
:mod:`repro.sim.campaign`) with the invariant monitor armed on every run.
Two matrices are driven:

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
trajectory is diffable across PRs, next to the other ``BENCH_*.json``.
"""

from __future__ import annotations

import os

from bench_common import bench_payload, write_bench_json
from repro.sim.campaign import CampaignResult, run_campaign
from repro.sim.experiments import Scenario, run_scenario

#: CI's campaign smoke job sets this to run the same matrices on fewer
#: seeds per cell; the gates (zero violations, rate 1.0, negative fixture)
#: are identical either way.
SMOKE = os.environ.get("REPRO_CAMPAIGN_SMOKE") == "1"
SEED_COUNT = 6 if SMOKE else 20
SVSS_SEED_COUNT = 2 if SMOKE else 3

MAIN_MATRIX = dict(
    n=4,
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
    round_bound=80,
)

SVSS_MATRIX = dict(
    n=4,
    adversaries=("none", "random", "slot-poison", "crash-recover"),
    schedulers=("uniform", "env-split", "slot-split", "per-message"),
    seeds=range(SVSS_SEED_COUNT),
    coin="svss",
    round_bound=250,
    max_rounds=300,
)


def _cell_rows(result: CampaignResult) -> list[dict]:
    rows = []
    for cell, sweep in result.cells.items():
        violations = [
            r.invariant_violation
            for r in sweep.records
            if r.invariant_violation is not None
        ]
        rows.append(
            {
                "adversary": cell.adversary,
                "scheduler": cell.scheduler,
                "runs": len(sweep),
                "agreement_rate": sweep.agreement_rate,
                "mean_rounds": sweep.summary("rounds").mean,
                "violations": violations,
                "coin_agreed": sum(r.coin_agreed for r in sweep.records),
                "coin_split": sum(r.coin_split for r in sweep.records),
                "shun_pairs": sum(r.shun_pairs for r in sweep.records),
            }
        )
    return rows


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
    main = run_campaign(**MAIN_MATRIX)
    svss = run_campaign(**SVSS_MATRIX)
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
        main={
            "runs": len(main),
            "cells": _cell_rows(main),
            "ok": main.ok,
            "wall_seconds": main.wall_seconds,
            "workers": main.workers,
        },
        svss={
            "runs": len(svss),
            "cells": _cell_rows(svss),
            "ok": svss.ok,
            "wall_seconds": svss.wall_seconds,
            "workers": svss.workers,
        },
        negative_fixture=negative,
    )
    path = write_bench_json("campaign", payload)

    emit(main.table("Adversary campaign: ideal coin, n=4"))
    emit(svss.table("Adversary campaign: SVSS coin sub-block, n=4"))
    emit(
        f"negative fixture: {negative['violation']!r} (fired as required); "
        f"artifact: {path.name}"
    )

    # Gate 1: the paper's safety claims are unconditional — any violation
    # in an honest-majority cell is a protocol bug.
    assert main.ok, main.cell_violations()
    assert svss.ok, svss.cell_violations()
    # Gate 2: every seeded run in every cell decided.
    for result in (main, svss):
        for cell, sweep in result.cells.items():
            assert sweep.agreement_rate == 1.0, (cell, sweep.records)
    # Gate 3 already asserted inside the fixture; record it for the reader.
    assert negative["fired"]
    # Sanity: the matrices really were monitored end to end.
    assert all(r.monitored for r in main.records)
    assert all(r.monitored for r in svss.records)
