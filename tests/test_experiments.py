"""Tests for the parallel experiment harness (``repro.sim.experiments``).

Includes the CI smoke sweep the acceptance criteria call for: 500+ seeded
agreement runs through ``run_matrix``, aggregated into
``repro.analysis``-backed statistics tables; and the monitored sweeps
(``monitor=True``) that carry the adversary x scheduler robustness claim.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.adversary.controller import random_adversary
from repro.config import SystemConfig
from repro.core.api import (
    RunCounters,
    build_stack,
    flip_common_coin,
    run_byzantine_agreement,
    run_byzantine_agreement_batch,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.sim import experiments
from repro.sim.experiments import (
    ADVERSARIES,
    INPUT_PATTERNS,
    SCHEDULERS,
    RunRecord,
    Scenario,
    SweepResult,
    run_matrix,
    run_scenario,
    scenario_matrix,
)
from repro.sim.runtime import Runtime


def _no_wall(records):
    """Wall-clock is the one legitimately nondeterministic record field."""
    return [replace(r, wall_seconds=0.0) for r in records]


class TestRegistries:
    def test_expected_entries(self):
        assert {"unit", "fifo", "uniform", "exponential", "targeted", "partition"} <= set(
            SCHEDULERS
        )
        assert {"none", "crash-one", "silent-one", "random"} <= set(ADVERSARIES)
        assert {"split", "ones", "zeros", "random"} <= set(INPUT_PATTERNS)

    def test_validate_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError):
            Scenario(n=4, seed=0, scheduler="tachyon").validate()
        with pytest.raises(ConfigurationError):
            Scenario(n=4, seed=0, adversary="gremlin").validate()
        with pytest.raises(ConfigurationError):
            Scenario(n=4, seed=0, inputs="fibonacci").validate()
        # A bad coin spec fails the matrix before any worker runs, with the
        # error the run itself would raise: one check knows the format.
        with pytest.raises(ConfigurationError, match="unknown coin spec"):
            scenario_matrix(ns=(4,), seeds=range(1), coin="ideal")
        with pytest.raises(ProtocolError, match="probability"):
            scenario_matrix(ns=(4,), seeds=range(1), coin=("ideal", 1.5))
        with pytest.raises(ConfigurationError, match="unknown coin spec"):
            run_byzantine_agreement(
                [0, 1, 1, 0], SystemConfig(n=4, seed=0), coin="ideal"
            )


#: The algebra has one implementation: naming a backend is a TypeError on
#: every entry point that used to take one, before anything runs.
REMOVED = {
    "Runtime": lambda cfg: Runtime(cfg, algebra_backend="pure"),
    "build_stack": lambda cfg: build_stack(cfg, algebra_backend="pure"),
    "run_byzantine_agreement": lambda cfg: run_byzantine_agreement(
        [0, 1, 1, 0], cfg, algebra_backend="pure"
    ),
    "run_byzantine_agreement_batch": lambda cfg: run_byzantine_agreement_batch(
        [[0, 1, 1, 0]], cfg, algebra_backend="pure"
    ),
    "flip_common_coin": lambda cfg: flip_common_coin(cfg, algebra_backend="pure"),
    "Scenario": lambda cfg: Scenario(n=4, seed=0, algebra_backend="pure"),
}


@pytest.mark.parametrize("where", REMOVED)
def test_removed_option_fails(where):
    with pytest.raises(TypeError, match="algebra_backend"):
        REMOVED[where](SystemConfig(n=4, seed=0))


class TestScenarioMatrix:
    def test_cross_product_and_overrides(self):
        matrix = scenario_matrix(
            ns=(4, 7),
            schedulers=("fifo", "uniform"),
            adversaries=("none",),
            seeds=range(3),
            inputs="ones",
        )
        assert len(matrix) == 2 * 2 * 1 * 3
        assert {s.inputs for s in matrix} == {"ones"}
        assert {(s.n, s.scheduler, s.adversary, s.seed) for s in matrix} == {
            (n, sch, "none", seed)
            for n in (4, 7)
            for sch in ("fifo", "uniform")
            for seed in range(3)
        }


class TestRunScenario:
    def test_deterministic_and_well_formed(self):
        scenario = Scenario(n=4, seed=9, scheduler="uniform")
        first, second = run_scenario(scenario), run_scenario(scenario)
        assert _no_wall([first]) == _no_wall([second])
        assert first.agreed and first.terminated
        assert first.decision in (0, 1)
        assert first.events_dispatched > 0
        assert first.messages_pushed >= first.events_dispatched
        assert first.predicate_evals <= first.events_dispatched / 5

    def test_adversarial_scenario_runs(self):
        record = run_scenario(
            Scenario(n=7, seed=1, scheduler="targeted", adversary="silent-one")
        )
        assert record.agreed

    @pytest.mark.parametrize("batch", [1, 4])
    def test_record_counters_are_the_results(self, batch, monkeypatch):
        """One record builder for both result kinds: every run counter on
        the record is the result's, and the record declares none itself."""
        results = []

        def keeping(entry_point):
            def run(*args, **kwargs):
                results.append(entry_point(*args, **kwargs))
                return results[-1]

            return run

        for name in ("run_byzantine_agreement", "run_byzantine_agreement_batch"):
            monkeypatch.setattr(experiments, name, keeping(getattr(experiments, name)))
        record = run_scenario(
            Scenario(n=4, seed=5, scheduler="fifo", batch=batch)
        )
        (result,) = results
        assert record.counters() == result.counters()
        assert record.events_dispatched > 0
        assert (record.svec_packed > 0) == (batch > 1)  # a batch packs its votes
        assert record.logical_messages == result.logical_messages
        assert record.decided_instances == batch
        assert record.decision == result.decision
        declared = {f.name for f in fields(RunCounters)}
        assert len(declared) == 11  # the algebra_backend shim is no field
        assert not declared & set(vars(RunRecord).get("__annotations__", {}))


class TestBatchedScenarios:
    """The batched-agreement axis: batch > 1 drives K concurrent instances
    on one runtime and aggregates the record across them."""

    def test_batched_scenario_runs_and_aggregates(self):
        record = run_scenario(
            Scenario(n=7, seed=2, scheduler="fifo", batch=8)
        )
        assert record.agreed and record.terminated
        assert record.decided_instances == 8
        assert record.decisions_per_wall_second > 0
        # Rotated split inputs decide both values across the batch.
        assert record.decision is None

    def test_batched_scenario_deterministic(self):
        scenario = Scenario(n=4, seed=5, scheduler="fifo", batch=4)
        first, second = run_scenario(scenario), run_scenario(scenario)
        assert _no_wall([first]) == _no_wall([second])

    def test_batch_inputs_vary_per_instance(self):
        from repro.sim.experiments import batch_inputs

        config = SystemConfig(n=4, seed=1)
        rows = batch_inputs(Scenario(n=4, seed=1, batch=3), config)
        assert rows == [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
        random_rows = batch_inputs(
            Scenario(n=4, seed=1, batch=3, inputs="random"), config
        )
        assert len(random_rows) == 3 and len(set(map(tuple, random_rows))) > 1

    def test_invalid_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(n=4, seed=0, batch=0).validate()

    def test_batched_matrix_through_worker_pool(self):
        matrix = scenario_matrix(
            ns=(4,), schedulers=("fifo",), seeds=range(4), batch=4
        )
        assert all(s.batch == 4 for s in matrix)
        inline = run_matrix(matrix, workers=1)
        pooled = run_matrix(matrix, workers=2)
        assert _no_wall(inline.records) == _no_wall(pooled.records)
        assert inline.agreement_rate == 1.0


class TestRunMatrix:
    def test_worker_pool_equals_inline(self):
        matrix = scenario_matrix(
            ns=(4,),
            schedulers=("fifo", "uniform"),
            adversaries=("none", "silent-one"),
            seeds=range(4),
        )
        inline = run_matrix(matrix, workers=1)
        pooled = run_matrix(matrix, workers=2)
        assert pooled.workers == 2
        assert _no_wall(inline.records) == _no_wall(pooled.records)

    def test_smoke_sweep_500_runs_feeds_analysis(self):
        """The CI smoke workload: >= 500 seeded runs in one call, aggregated
        through repro.analysis statistics."""
        matrix = scenario_matrix(
            ns=(4, 7),
            schedulers=("fifo", "uniform"),
            adversaries=("none", "silent-one"),
            seeds=range(64),
        )
        assert len(matrix) == 512
        sweep = run_matrix(matrix, workers=1)
        assert len(sweep) == 512
        assert sweep.agreement_rate == 1.0
        low, high = sweep.agreement_ci95()
        assert low > 0.98 and high == 1.0
        # Grouping: one sub-sweep per (n, scheduler, adversary) cell.
        assert len(sweep.group_by()) == 8
        rounds = sweep.summary("rounds")
        assert rounds.count == 512 and rounds.mean >= 1.0
        # Per-n groups: n = 4 and n = 7 exist, and events and messages
        # grow with n (the exact bills are tests/test_bills.py's).
        by_n = sweep.group_by("n")
        assert list(by_n) == [(4,), (7,)]
        for metric in ("events_dispatched", "total_messages"):
            small, large = (group.summary(metric).mean for group in by_n.values())
            assert large > small
        table = sweep.table()
        assert "512 runs" in table and "agree rate" in table


def monitored_sweep(adversaries, schedulers, seeds, workers=1):
    """A robustness campaign: one monitored matrix at n=4, one run_matrix."""
    return run_matrix(
        scenario_matrix(
            ns=(4,),
            schedulers=schedulers,
            adversaries=adversaries,
            seeds=seeds,
            monitor=True,
            round_bound=60,
        ),
        workers=workers,
    )


class TestMonitoredMatrix:
    def test_matrix_covers_every_cell(self):
        cells = {
            (a, s)
            for a in ("none", "random")
            for s in ("uniform", "fifo", "per-message")
        }
        matrix = scenario_matrix(
            ns=(4,),
            adversaries=("none", "random"),
            schedulers=("uniform", "fifo", "per-message"),
            seeds=range(3),
            monitor=True,
        )
        assert len(matrix) == 2 * 3 * 3
        assert all(s.monitor for s in matrix)
        assert {(s.adversary, s.scheduler) for s in matrix} == cells

    def test_scheduler_typo_fails_fast(self):
        with pytest.raises(ConfigurationError):
            scenario_matrix(
                ns=(4,),
                schedulers=("uniform", "warp"),
                seeds=range(1),
                monitor=True,
            )

    def test_split_cells_cover_both_transports(self):
        """How much the transport packs is three cells of the scheduler
        axis: ``uniform`` with either packing, or both, vetoed."""
        config = SystemConfig(n=4, seed=0)

        def stance(name):
            scheduler = SCHEDULERS[name](config)
            return scheduler.splits_envelopes, scheduler.splits_slots

        def draws(name):
            scheduler = SCHEDULERS[name](config)
            return [scheduler.delay(1, 2, ("x",), 0.0) for _ in range(5)]

        assert stance("uniform") == (False, False)
        assert stance("env-split") == (True, False)
        assert stance("slot-split") == (False, True)
        assert stance("per-message") == (True, True)
        for name in ("env-split", "slot-split", "per-message"):
            assert draws(name) == draws("uniform")  # same seeded delays


class TestMonitoredSweep:
    def test_small_monitored_sweep_is_clean(self):
        sweep = monitored_sweep(
            adversaries=("none", "random", "adaptive-crash"),
            schedulers=("uniform", "vote-balancing", "per-message"),
            seeds=range(3),
        )
        assert sweep.violations == []
        assert len(sweep.group_by("adversary", "scheduler")) == 3 * 3
        assert len(sweep) == 3 * 3 * 3
        assert all(r.monitored for r in sweep.records)
        table = sweep.table("adversary", "scheduler")
        assert "all invariants held" in table and "violations" in table

    def test_records_carry_adversary_specs(self):
        sweep = monitored_sweep(
            adversaries=("random",), schedulers=("uniform",), seeds=range(2)
        )
        for record in sweep.records:
            kind = record.adversary_spec[0]
            assert kind == "random"

    def test_spec_rebuilds_the_same_corruption(self):
        """A RunRecord's adversary_spec seed replays the exact adversary."""
        record = run_scenario(
            Scenario(n=4, seed=9, adversary="random", monitor=True)
        )
        kind, seed, chosen = record.adversary_spec
        rebuilt = random_adversary(SystemConfig(n=4, seed=9), seed)
        assert rebuilt.spec == (kind, seed, chosen)

    def test_violations_surface_without_raising(self):
        """A run that trips the monitor becomes a recorded failure: it is in
        the sweep's (and its cell's) violations and in the table, while a
        group no monitor watched shows no verdict at all."""
        record = run_scenario(
            Scenario(
                n=4,
                seed=3,
                inputs="split",
                monitor=True,
                round_bound=0,  # absurd watchdog: every run violates
            )
        )
        assert record.invariant_violation is not None
        assert record.invariant_violation.startswith("[liveness]")
        assert not record.agreed
        unwatched = run_scenario(Scenario(n=4, seed=3, scheduler="fifo"))
        sweep = SweepResult(records=[record, unwatched])
        assert sweep.violations == [record]
        cells = sweep.group_by("adversary", "scheduler")
        assert cells[("none", "uniform")].violations == [record]
        assert cells[("none", "fifo")].violations == []
        table = sweep.table("adversary", "scheduler")
        assert "1 VIOLATION(S)" in table
        cells_of_row = [line.split(" | ") for line in table.splitlines()[3:5]]
        verdicts = {row[1].strip(): row[-1].strip() for row in cells_of_row}
        assert verdicts == {"uniform": "1", "fifo": "–"}

    def test_worker_count_does_not_change_results(self):
        axes = dict(
            adversaries=("none", "random"),
            schedulers=("uniform", "slot-split"),
            seeds=range(2),
        )
        inline = monitored_sweep(workers=1, **axes)
        pooled = monitored_sweep(workers=2, **axes)
        assert pooled.workers == 2
        assert _no_wall(inline.records) == _no_wall(pooled.records)


class TestRunRecordFields:
    def test_defaults_for_unmonitored_runs(self):
        record = run_scenario(Scenario(n=4, seed=1))
        assert record.monitored is False
        assert record.invariant_violation is None
        assert record.coin_agreed == 0 and record.coin_split == 0

    def test_monitored_svss_run_reports_coin_tallies(self):
        record = run_scenario(
            Scenario(
                n=4,
                seed=5,
                coin="svss",
                scheduler="vote-balancing",
                monitor=True,
                round_bound=200,
            )
        )
        assert record.monitored and record.invariant_violation is None
        assert record.coin_agreed + record.coin_split >= 1

    def test_record_stays_picklable(self):
        import pickle

        record = run_scenario(
            Scenario(n=4, seed=2, adversary="adaptive-crash", monitor=True)
        )
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
