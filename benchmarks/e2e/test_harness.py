"""Tier-1 tests of the end-to-end benchmark harness (no sockets, n <= 4)."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import benchstats  # noqa: E402
import layerprobe  # noqa: E402
import worker  # noqa: E402

if str(bench.SRC) not in sys.path:  # tier-1 sets PYTHONPATH=src; be independent of it
    sys.path.insert(0, str(bench.SRC))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- statistics -------------------------------------------------------------


def test_percentile_on_known_samples():
    samples = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert benchstats.percentile(samples, 0) == 1.0
    assert benchstats.percentile(samples, 50) == 3.0
    assert benchstats.percentile(samples, 75) == 4.0
    assert benchstats.percentile(samples, 100) == 5.0
    assert benchstats.percentile([1.0, 2.0], 75) == pytest.approx(1.75)
    assert benchstats.percentile([7.0], 75) == 7.0
    with pytest.raises(ValueError):
        benchstats.percentile([], 50)


def test_quartiles_match_the_contract_definition():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, median, q3 = benchstats.quartiles(values)
    assert (q1, median, q3) == (2.75, 5.5, 8.25)
    assert benchstats.spread(values) == pytest.approx(1.0)
    assert benchstats.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert benchstats.spread([3.0]) == 0.0


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in steady]
    slower = [v * 1.2 for v in steady]
    noisy = [10.0, 14.0, 7.0, 12.0, 8.0, 13.0, 9.0, 6.0, 11.0, 10.0]
    assert benchstats.compare(steady, faster, "lower", 0.10)["verdict"] == benchstats.IMPROVED
    assert benchstats.compare(steady, slower, "lower", 0.10)["verdict"] == benchstats.REGRESSED
    assert benchstats.compare(steady, steady, "lower", 0.10)["verdict"] == benchstats.UNCHANGED
    # spread wider than the bound: unresolved, never "unchanged"
    assert benchstats.compare(noisy, noisy[::-1], "lower", 0.10)["verdict"] == benchstats.UNRESOLVED
    # fewer than ten pairs never make a gain
    assert benchstats.compare(steady[:5], faster[:5], "lower", 0.10)["verdict"] == benchstats.UNCHANGED
    # direction: for a "higher is better" metric the same numbers flip
    assert benchstats.compare(steady, faster, "higher", 0.10)["verdict"] == benchstats.REGRESSED
    # absolute bound (failed_share: +0): any rise regresses
    assert benchstats.compare([0.0], [0.025], "lower", 0.0, absolute=True)["verdict"] == benchstats.REGRESSED
    assert benchstats.compare([0.0], [0.0], "lower", 0.0, absolute=True)["verdict"] == benchstats.UNCHANGED


# -- LayerProbe -------------------------------------------------------------


def test_probe_child_time_subtraction_on_a_three_level_tree():
    now = [0]
    probe = layerprobe.LayerProbe(clock=lambda: now[0])

    def work(ticks):
        now[0] += ticks

    def leaf():
        work(7)

    leaf = probe.wrap("poly", "leaf", leaf)

    def middle():
        work(3)
        leaf()
        work(2)

    middle = probe.wrap("broadcast", "middle", middle)

    def top():
        work(10)
        middle()
        work(5)
        middle()
        work(1)

    top = probe.wrap("sim", "top", top)

    probe.begin_op("op-0")
    work(4)  # entry-point time outside every seam
    top()
    assert probe.end_op() == 4 + 16 + 2 * (5 + 7)
    budget = probe.budget()
    assert budget["poly"]["self_s_raw"] == pytest.approx(14e-9)
    assert budget["broadcast"]["self_s_raw"] == pytest.approx(10e-9)
    assert budget["sim"]["self_s_raw"] == pytest.approx(16e-9)
    assert budget["driver"]["self_s_raw"] == pytest.approx(4e-9)
    assert sum(entry["self_s_raw"] for entry in budget.values()) == pytest.approx(44e-9)
    assert budget["poly"]["by_parent"] == {"broadcast": {"calls": 2, "self_s_raw": pytest.approx(14e-9)}}
    assert budget["broadcast"]["calls"] == 2 and budget["broadcast"]["made_calls"] == 2
    assert budget["sim"]["made_calls"] == 2 and budget["driver"]["made_calls"] == 1
    assert probe.seam("middle") == 2 and probe.seam("leaf") == 2 and probe.seam("top") == 1
    spans = probe.raw_spans()
    assert [s["seam"] for s in spans] == ["top", "middle", "leaf", "middle", "leaf"]
    assert [s["parent"] for s in spans] == [-1, 0, 1, 0, 3]
    assert {s["op"] for s in spans} == {"op-0"}


def test_probe_overhead_calibration_and_correction():
    probe = layerprobe.LayerProbe()
    inner, outer = probe.calibrate(rounds=2000)
    assert 0 < inner < 20_000 and 0 <= outer < 20_000
    entry = {"calls": 1000, "made_calls": 500, "self_s_raw": 1.0}
    expected = 1.0 - (1000 * inner + 500 * outer) / 1e9
    assert layerprobe.corrected_self_s(entry, inner, outer) == pytest.approx(expected)
    assert layerprobe.corrected_self_s({"calls": 10**9, "made_calls": 0, "self_s_raw": 0.1}, 1000, 0) == 0.0


def test_probe_names_layers_by_defining_module_and_survives_a_missing_seam(monkeypatch):
    from repro.broadcast.manager import BroadcastManager
    from repro.core import vectormux

    assert layerprobe.layer_of(BroadcastManager._on_b1) == "broadcast"
    assert layerprobe.layer_of(vectormux.SessionVectorMux.on_private) == "vectormux"
    assert layerprobe.layer_of(len) == "other"
    monkeypatch.delattr(vectormux.SessionVectorMux, "offer_rb")
    probe = layerprobe.LayerProbe().install()
    try:
        assert probe.missing == ["vectormux:repro.core.vectormux.SessionVectorMux.offer_rb"]
        assert layerprobe.missing_layers(probe.missing) == {"vectormux"}
        assert getattr(vectormux.SessionVectorMux.flush, "_layerprobe", None) is probe
    finally:
        probe.uninstall()
    assert getattr(vectormux.SessionVectorMux.flush, "_layerprobe", None) is None


# -- worker plumbing --------------------------------------------------------


def test_accepted_kwargs_follows_the_signature():
    def with_svec(config, svec=False, coalesce=False):
        return svec, coalesce

    def without_svec(config, coalesce=False):
        return coalesce

    def catch_all(config, **kwargs):
        return kwargs

    assert worker.accepted_kwargs(with_svec, svec=True, coalesce=True) == {"svec": True, "coalesce": True}
    assert worker.accepted_kwargs(without_svec, svec=True, coalesce=True) == {"coalesce": True}
    assert worker.accepted_kwargs(catch_all, svec=True) == {"svec": True}
    assert without_svec(None, **worker.accepted_kwargs(without_svec, svec=True, coalesce=True)) is True


def test_worker_environment_is_scrubbed():
    env = bench.scrubbed_env({
        "PATH": "/bin",
        "REPRO_BATCH_INGEST": "0",
        "REPRO_ALGEBRA_BACKEND": "pure",
        "REPRO_NET_SMOKE": "1",
        "REPRO_CAMPAIGN_SMOKE": "1",
        "PYTHONPATH": "/elsewhere",
    })
    assert not [key for key in env if key.startswith("REPRO_")]
    assert env["PATH"] == "/bin"
    assert env["PYTHONPATH"] == str(bench.SRC)


def test_scenario_draw_takes_one_scenario_from_each_cost_bin():
    panel = {"scenarios": [{"seed": 1000 + rank, "rounds": 2 + rank % 2} for rank in range(200)]}
    first = worker.draw_scenarios(panel, 1, 10)
    assert first == worker.draw_scenarios(panel, 1, 10)
    other = worker.draw_scenarios(panel, 2, 10)
    assert first != other and len(set(first)) == len(set(other)) == 10
    for drawn in (first, other):
        # 6 two-round scenarios (even ranks), one from each sixth of them by
        # cost rank; 4 three-round ones, one from each quarter
        assert sorted((s - 1000) // 2 * 6 // 100 for s in drawn if s % 2 == 0) == list(range(6))
        assert sorted((s - 1000) // 2 * 4 // 100 for s in drawn if s % 2 == 1) == list(range(4))
    with pytest.raises(ValueError):
        worker.draw_scenarios(panel, 1, 400)


def test_host_speed_sampler_samples_in_flight_and_cleans_up():
    import signal
    import time

    sampler = worker.HostSpeedSampler(interval_s=0.01, rounds=200)
    sampler.start()
    deadline = time.perf_counter() + 0.15
    spins = 0
    while time.perf_counter() < deadline:
        spins += 1
    sampler.stop()
    assert len(sampler.walls) >= 3 and len(sampler.cpus) == len(sampler.walls)
    assert sampler.spent_wall == pytest.approx(sum(sampler.walls))
    assert 0 < sampler.spent_wall < 0.15
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    # an operation shorter than one interval still gets its sample
    brief = worker.HostSpeedSampler(interval_s=60.0, rounds=200)
    brief.start()
    brief.stop()
    assert len(brief.walls) == 1


def test_reference_speed_divides_by_the_slowdown_around_the_operation():
    nominal = bench.SPEC["reference_kernel"]["nominal_s"]
    records = [
        {"failure": None, "wall_s": 3.0, "cpu_s": 2.0, "kernel_wall_s": 2 * nominal, "kernel_cpu_s": 4 * nominal},
        {"failure": "boom"},
    ]
    bench.at_reference_speed(records)
    assert records[0]["slowdown"] == pytest.approx(2.0)
    assert records[0]["wall_ref_s"] == pytest.approx(1.5)
    assert records[0]["cpu_ref_s"] == pytest.approx(0.5)
    assert "wall_ref_s" not in records[1]
    sampler = worker.HostSpeedSampler(interval_s=0.1, rounds=200)
    sampler.stamps = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0]
    sampler.walls = [1.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0]
    sampler.cpus = list(sampler.walls)
    assert sampler.kernel_during(1.0, 2.0, pad_s=1.0) == (1.0, 1.0, 4)
    assert sampler.kernel_during(10.5, 11.5, pad_s=1.0) == (5.0, 5.0, 3)
    assert sampler.kernel_during(6.0, 7.0, pad_s=1.0) == (1.0, 1.0, 7)  # too few nearby: all


def test_output_checks_flag_each_failure():
    assert worker.check_coin({1: 0, 2: 1}, [1, 2]) is None
    assert "no coin output" in worker.check_coin({1: 0}, [1, 2])
    assert "not a bit" in worker.check_coin({1: 0, 2: 7}, [1, 2])
    stats = {"frame_errors": 0, "auth_rejected": 0}
    assert worker.check_net({1: 0, 2: 0, 3: 1, 4: 0}, stats, 4) is None
    assert "frame errors" in worker.check_net({1: 0, 2: 0, 3: 1, 4: 0}, dict(stats, frame_errors=2), 4)


# -- BENCHMARK.json and spec.json -------------------------------------------


def test_benchmark_json_schema_and_consistency_with_the_spec():
    with open(bench.ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    spec = bench.SPEC
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"][:2] == ["python3", "benchmarks/e2e/bench.py"]
    assert contract["run_seconds"] == spec["run_seconds"] and 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = (
        [w["name"] for w in contract["workloads"]]
        + [m["name"] for m in contract["end_to_end"]]
        + [m["name"] for m in contract["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])

    # the driver's view is the spec's, nothing renamed
    assert [w["name"] for w in contract["workloads"]] == [w["name"] for w in spec["workloads"]]
    assert [w["why"] for w in contract["workloads"]] == [w["why"] for w in spec["workloads"]]
    driver_e2e = [m for m in spec["end_to_end"] if m["driver"]]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]] == [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in driver_e2e
    ]
    assert all(m["workloads"] == list(bench.WORKLOADS) for m in driver_e2e)
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ]
    assert spec["claim"] is None


def test_spec_metrics_point_at_defined_metrics_and_workloads():
    spec = bench.SPEC
    assert len(spec["end_to_end"]) == 9 and len(spec["end_to_end"]) <= 16
    assert len([m for m in spec["per_layer"] if m["layer"] not in ("retained state", "tail", "trace", "host")]) == 51
    for metric in spec["end_to_end"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert set(metric["workloads"]) <= set(bench.WORKLOADS)
    for metric in spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        for move in metric["moves"]:
            assert move["metric"] in bench.E2E, move
            assert move["workload"] in bench.E2E[move["metric"]]["workloads"], move
    assert set(bench.ZERO_CALL_LAYERS) == set(bench.WORKLOADS)
    assert all(set(layers) <= set(layerprobe.LAYERS) for layers in bench.ZERO_CALL_LAYERS.values())


# -- smoke: the whole pipeline at n=4, one operation, simulator only --------


@pytest.mark.parametrize("name", bench.SIM_WORKLOADS)
def test_smoke_run_produces_every_metric(name):
    run = bench.timing_run(name, seed=1, seconds=bench.SPEC["run_seconds"], smoke=True)
    bench.require_complete(run)
    assert run["attempted"] == 1 and run["failed"] == 0, run["failures"]
    expected = {
        m["name"] for m in bench.SPEC["end_to_end"]
        if name in m["workloads"] and m["name"] not in ("latency_drift", "rss_growth_mb_per_op")
    }
    assert expected <= set(run["metrics"])
    assert all(entry["value"] > 0 for metric, entry in run["metrics"].items() if metric != "failed_share")
    assert run["metrics"]["failed_share"]["value"] == 0
    assert run["counts"]["events_dispatched"] > 0 and run["counts"]["logical_messages"] > 0
    assert run["host"]["nproc"] and run["host"]["python"] and run["host"]["algebra_backend"]


def test_smoke_trace_produces_every_layer_metric_and_repeats_counts():
    run = bench.trace_run("coin_n7", seed=1, seconds=bench.SPEC["run_seconds"], smoke=True)
    assert run["failed"] == 0, run["failures"]
    assert set(run["metrics"]) == set(bench.PER_LAYER)
    assert run["probe_missing"] == []
    # untraced and traced operations of the same seed count the same events,
    # and the layers' raw self times add up to the operation wall
    assert run["checks"] == []
    value = {metric: entry["value"] for metric, entry in run["metrics"].items()}
    assert value["sim.events"] > 0 and value["broadcast.handler_calls"] > 0
    assert value["mwsvss.handle_calls"] > 0 and value["coin.invocations"] == 1
    assert value["codec.encode_calls"] == 0 and value["journal.self_s"] == 0
    with open(bench.RESULTS / "trace_coin_n7_smoke.json") as handle:
        trace = json.load(handle)
    assert 0 < len(trace["raw_spans"]) <= 2000
    assert {"seam", "start_ns", "end_ns", "parent", "op"} == set(trace["raw_spans"][0])
