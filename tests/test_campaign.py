"""Tests for the adversary campaign engine."""

from __future__ import annotations

import pytest

from repro.adversary.controller import random_adversary
from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.sim.campaign import (
    DEFAULT_SCHEDULERS,
    CampaignCell,
    CampaignResult,
    campaign_matrix,
    run_campaign,
)
from repro.sim.experiments import (
    SCHEDULERS,
    RunRecord,
    Scenario,
    SweepResult,
    run_scenario,
)


class TestMatrix:
    def test_matrix_covers_every_cell(self):
        matrix = campaign_matrix(
            n=4,
            adversaries=("none", "random"),
            schedulers=("uniform", "fifo", "per-message"),
            seeds=range(3),
        )
        assert len(matrix) == 2 * 3 * 3
        assert all(s.monitor for s in matrix)
        assert {(s.adversary, s.scheduler) for s in matrix} == {
            (a, s) for a in ("none", "random") for s in ("uniform", "fifo", "per-message")
        }

    def test_owned_axes_cannot_be_overridden(self):
        with pytest.raises(ConfigurationError):
            campaign_matrix(seeds=range(1), monitor=True)
        with pytest.raises(ConfigurationError):
            campaign_matrix(seeds=range(1), schedulers=("uniform", "warp"))

    def test_split_cells_cover_both_transports(self):
        """What the ``modes`` axis crossed every cell with is three cells of
        the scheduler axis: ``uniform`` with either packing, or both, vetoed."""
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
            assert name in DEFAULT_SCHEDULERS
            assert draws(name) == draws("uniform")  # same seeded delays


class TestCell:
    def test_describe(self):
        cell = CampaignCell("random", "eclipse")
        assert cell.describe() == "random x eclipse"


class TestRunCampaign:
    def test_small_campaign_is_clean(self):
        res = run_campaign(
            n=4,
            adversaries=("none", "random", "adaptive-crash"),
            schedulers=("uniform", "vote-balancing", "per-message"),
            seeds=range(3),
            workers=1,
        )
        assert res.ok and not res.violations
        assert len(res.cells) == 3 * 3
        assert len(res) == 3 * 3 * 3
        assert all(r.monitored for r in res.records)
        assert res.cell_violations() == {}
        assert "all invariants held" in res.table()

    def test_records_carry_adversary_specs(self):
        res = run_campaign(
            n=4,
            adversaries=("random",),
            schedulers=("uniform",),
            seeds=range(2),
            workers=1,
        )
        for record in res.records:
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
        """A run that trips the monitor becomes a recorded failure, and the
        campaign verdict turns red."""
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
        cell = CampaignCell("none", "uniform")
        res = CampaignResult(cells={cell: SweepResult(records=[record])})
        assert not res.ok
        assert res.violations == [record]
        assert res.cell_violations() == {cell: [record]}
        assert "VIOLATION" in res.table()

    def test_worker_count_does_not_change_results(self):
        kwargs = dict(
            n=4,
            adversaries=("none", "random"),
            schedulers=("uniform", "slot-split"),
            seeds=range(2),
        )
        inline = run_campaign(workers=1, **kwargs)
        pooled = run_campaign(workers=2, **kwargs)
        strip = lambda r: (r.scenario, r.agreed, r.decision, r.rounds,
                           r.adversary_spec, r.invariant_violation)
        assert [strip(r) for r in inline.records] == [
            strip(r) for r in pooled.records
        ]


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
