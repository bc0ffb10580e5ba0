"""Multi-OS-process launch harness + after-the-fact verdict tests.

:class:`NetVerdict` is the cross-process replacement for the live
:class:`InvariantMonitor`: children report JSON, the parent re-checks
the paper's invariants over the collected reports.  The unit tests here
attack the judge itself (it must catch every violation class and stay
quiet on clean runs); the slow-marked test spawns real subprocesses
end to end and cross-checks the decisions against the simulator run
with identical inputs.
"""

from __future__ import annotations

import asyncio
import tempfile

import pytest

from repro.config import SystemConfig
from repro.core.api import DEFAULT_INSTANCE, run_byzantine_agreement
from repro.net.journal import Journal
from repro.net.launch import run_processes
from repro.net.verdict import NetVerdict


def _report(pid, decisions=None, coins=None):
    return {
        "pid": pid,
        "decisions": {k: list(v) for k, v in (decisions or {}).items()},
        "coins": coins or {},
    }


# ---------------------------------------------------------------------------
# NetVerdict: the judge itself
# ---------------------------------------------------------------------------


def test_verdict_clean_run_is_safe():
    v = NetVerdict(n=4, t=1)
    v.expect_inputs("aba", {1: 1, 2: 1, 3: 1, 4: 1})
    for pid in (1, 2, 3, 4):
        v.add_report(_report(pid, {"aba": (1, pid)}))
    verdict = v.check()
    assert v.safe
    assert verdict["violations"] == []
    assert verdict["processes_reporting"] == 4
    assert len(verdict["decisions"]) == 4
    assert verdict["max_round"] == 4


def test_verdict_catches_agreement_safety():
    v = NetVerdict(n=4, t=1)
    v.add_report(_report(1, {"aba": (0, 1)}))
    v.add_report(_report(2, {"aba": (1, 1)}))
    verdict = v.check(expect_all_decided=False)
    assert not v.safe
    assert [x["kind"] for x in verdict["violations"]] == ["agreement-safety"]


def test_verdict_catches_validity():
    v = NetVerdict(n=4, t=1)
    v.expect_inputs("aba", {1: 1, 2: 1, 3: 1, 4: 1})
    for pid in (1, 2, 3, 4):
        v.add_report(_report(pid, {"aba": (0, 2)}))  # unanimous 1 -> decided 0
    verdict = v.check()
    kinds = {x["kind"] for x in verdict["violations"]}
    assert "validity" in kinds
    assert "agreement-safety" not in kinds  # they did agree — on the wrong bit


def test_verdict_validity_not_triggered_by_split_inputs():
    v = NetVerdict(n=4, t=1)
    v.expect_inputs("aba", {1: 0, 2: 1, 3: 0, 4: 1})
    for pid in (1, 2, 3, 4):
        v.add_report(_report(pid, {"aba": (0, 3)}))
    assert v.check()["violations"] == []


def test_verdict_catches_partial_liveness():
    v = NetVerdict(n=4, t=1)
    v.add_report(_report(1, {"aba": (1, 2)}))
    v.add_report(_report(2, {"aba": (1, 2)}))
    v.add_report(_report(3))  # reported, never decided
    verdict = v.check()
    [violation] = verdict["violations"]
    assert violation["kind"] == "liveness"
    assert violation["detail"]["missing"] == [3]


def test_verdict_catches_zero_decider_liveness():
    """A run where *nobody* decided has no decision instances at all; the
    expected-inputs union must still make it fail liveness."""
    v = NetVerdict(n=4, t=1)
    v.expect_inputs(DEFAULT_INSTANCE, {1: 1, 2: 1, 3: 1, 4: 1})
    for pid in (1, 2, 3, 4):
        v.add_report(_report(pid))
    verdict = v.check()
    kinds = [x["kind"] for x in verdict["violations"]]
    assert kinds == ["liveness"]
    assert verdict["violations"][0]["detail"]["missing"] == [1, 2, 3, 4]


def test_verdict_liveness_waived_when_not_expected():
    v = NetVerdict(n=4, t=1)
    v.add_report(_report(1, {"aba": (1, 2)}))
    v.add_report(_report(2))
    assert v.check(expect_all_decided=False)["violations"] == []


def test_verdict_catches_duplicate_report():
    v = NetVerdict(n=4, t=1)
    v.add_report(_report(2, {"aba": (1, 1)}))
    v.add_report(_report(2, {"aba": (1, 1)}))
    assert [x["kind"] for x in v.violations] == ["duplicate-report"]


def test_verdict_coin_tallies_split_is_legal():
    """Honest coin outputs may split (probability <= epsilon per session);
    the verdict tallies agreed vs split but never flags a violation."""
    v = NetVerdict(n=4, t=1)
    for pid in (1, 2, 3, 4):
        v.add_report(_report(pid, coins={"0": 1, "1": pid % 2}))
    verdict = v.check(expect_all_decided=False)
    assert verdict["coin_invocations"] == 2
    assert verdict["coin_agreed"] == 1
    assert verdict["coin_split"] == 1
    assert verdict["violations"] == []


# ---------------------------------------------------------------------------
# End to end: real OS processes, judged by the same class
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_launch_four_processes_agrees_and_matches_sim(tmp_path, monkeypatch):
    """Four OS subprocesses run full-stack agreement (MW-SVSS coin) over
    real sockets; every decision must be identical to the simulator run
    on the same unanimous inputs — the transport must not be able to
    change what the protocol decides.  Every child is journaled, in a
    temporary directory the run removes."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    inputs = [1, 1, 1, 1]
    seed = 77
    verdict = asyncio.run(
        run_processes(4, inputs=inputs, seed=seed, timeout=90)
    )
    assert verdict["violations"] == []
    assert verdict["processes_reporting"] == 4
    for report in verdict["reports"].values():
        assert report["stats"]["journal"]["appended"] > 0
    assert list(tmp_path.iterdir()) == []
    net_decisions = {
        pid: value for _, pid, value, _ in verdict["decisions"]
    }

    sim = run_byzantine_agreement(inputs, SystemConfig(n=4, seed=seed))
    assert sim.agreed
    assert net_decisions == {pid: sim.decision for pid in (1, 2, 3, 4)}


@pytest.mark.slow
def test_launch_survives_one_killed_process():
    """SIGKILL one child mid-run: the three survivors must still decide
    (n=4, t=1 fail-stop) and the verdict stays clean."""
    verdict = asyncio.run(
        run_processes(
            4, inputs=[0, 0, 0, 0], seed=78, timeout=90,
            kill_after={3: 2.0},
        )
    )
    assert verdict["violations"] == []
    assert verdict["processes_reporting"] == 3
    decided = {pid for _, pid, _, _ in verdict["decisions"]}
    assert decided == {1, 2, 4}
    assert {value for _, _, value, _ in verdict["decisions"]} == {0}


# ---------------------------------------------------------------------------
# Journal-era verdict checks: self-contradiction, hung, counters
# ---------------------------------------------------------------------------


def test_verdict_catches_self_contradiction():
    """A relaunched process contradicting its own journaled decision is a
    safety violation even when the cluster happens to agree with it."""
    v = NetVerdict(n=4, t=1)
    report = _report(3, {"aba": (1, 2)})
    report["prior_decisions"] = {"aba": [0, 2]}
    report["rejoined"] = True
    v.add_report(report)
    verdict = v.check(expect_all_decided=False)
    kinds = [x["kind"] for x in verdict["violations"]]
    assert kinds == ["self-contradiction"]
    assert verdict["rejoined"] == [3]


def test_verdict_consistent_rejoin_is_clean():
    v = NetVerdict(n=4, t=1)
    report = _report(3, {"aba": (1, 2)})
    report["prior_decisions"] = {"aba": [1, 2]}
    report["rejoined"] = True
    v.add_report(report)
    assert v.check(expect_all_decided=False)["violations"] == []


def test_verdict_mark_hung():
    v = NetVerdict(n=4, t=1)
    v.add_report(_report(1, {"aba": (1, 1)}))
    v.mark_hung(4)
    verdict = v.check(expect_all_decided=False)
    [violation] = verdict["violations"]
    assert violation["kind"] == "hung"
    assert violation["detail"]["pid"] == 4


def test_verdict_check_is_idempotent():
    """Asking twice judges the same run: the reports' violations are
    recomputed, and what feeding recorded (a hung child) is kept once."""
    v = NetVerdict(n=4, t=1)
    v.add_report(_report(1, {"aba": (0, 1)}))
    v.add_report(_report(2, {"aba": (1, 1)}))
    v.mark_hung(4)
    first = v.check(expect_all_decided=False)
    second = v.check(expect_all_decided=False)
    assert [x["kind"] for x in first["violations"]] == ["hung", "agreement-safety"]
    assert second["violations"] == first["violations"] == v.violations
    assert not v.safe


def test_verdict_aggregates_observability_counters():
    v = NetVerdict(n=4, t=1)
    for pid in (1, 2):
        report = _report(pid, {"aba": (1, 1)})
        report["stats"] = {
            "frame_errors": {"bad-crc": pid, "bad-value": 1},
            "auth_rejected": pid,
            "journal": {"replayed": 10 * pid},
        }
        v.add_report(report)
    verdict = v.check(expect_all_decided=False)
    assert verdict["frame_errors"] == {"bad-crc": 3, "bad-value": 2}
    assert verdict["auth_rejected"] == 3
    assert verdict["journal_replayed"] == 30
    assert verdict["violations"] == []


# ---------------------------------------------------------------------------
# End to end: kill -9 -> relaunch from journal -> rejoin -> agree
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_launch_restart_lifecycle_matches_no_kill_run(tmp_path):
    """The full lifecycle gate: SIGKILL an OS-process node mid-run,
    relaunch it from its journal, and the final all-n decision must be
    bit-identical to the no-kill run on the same inputs."""
    inputs = [1, 1, 1, 1]
    seed = 91
    baseline = asyncio.run(
        run_processes(4, inputs=inputs, seed=seed, timeout=90)
    )
    assert baseline["violations"] == []
    base_decisions = {pid: v for _, pid, v, _ in baseline["decisions"]}

    verdict = asyncio.run(
        run_processes(
            4, inputs=inputs, seed=seed, timeout=90,
            restart={3: (1.0, 2.0)}, journal_dir=tmp_path,
            hung_after=30.0,
        )
    )
    assert verdict["violations"] == []
    assert verdict["processes_reporting"] == 4
    decisions = {pid: v for _, pid, v, _ in verdict["decisions"]}
    assert decisions == base_decisions  # bit-identical to the no-kill run
    # The relaunched child really did come back through its journal.
    report = verdict["reports"][3]
    assert report["rejoined"] or report["stats"]["journal"]["replayed"] > 0


@pytest.mark.slow
def test_launch_tampered_journal_is_caught(tmp_path):
    """Negative fixture: flip one node's journaled decision between two
    runs sharing a journal dir.  The relaunched node faithfully
    re-announces the tampered bit and the verdict must reject the run."""
    inputs = [1, 1, 1, 1]
    seed = 92
    first = asyncio.run(
        run_processes(
            4, inputs=inputs, seed=seed, timeout=90, journal_dir=tmp_path
        )
    )
    assert first["violations"] == []

    # Tamper: append a flipped decision (decision records are last-wins).
    tampered = Journal(tmp_path / "node-3.journal")
    tampered.record_decision(DEFAULT_INSTANCE, 0, 1)
    tampered.close()

    second = asyncio.run(
        run_processes(
            4, inputs=inputs, seed=seed, timeout=90, journal_dir=tmp_path
        )
    )
    kinds = {x["kind"] for x in second["violations"]}
    assert "agreement-safety" in kinds
    assert 3 in second["rejoined"]


@pytest.mark.slow
def test_launch_hung_child_is_killed_and_reported(tmp_path):
    """A wedged child (no heartbeats, no report) is killed at the
    heartbeat deadline and recorded as ``hung`` — the run never rides
    the harness wall-clock cap, and the other three still decide."""
    verdict = asyncio.run(
        run_processes(
            4, inputs=[0, 0, 0, 0], seed=93, timeout=30,
            hang={2}, hung_after=4.0,
        )
    )
    kinds = [x["kind"] for x in verdict["violations"]]
    assert kinds == ["hung"]
    assert verdict["violations"][0]["detail"]["pid"] == 2
    decided = {pid for _, pid, _, _ in verdict["decisions"]}
    assert decided == {1, 3, 4}
