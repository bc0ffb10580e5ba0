"""Multi-OS-process launch harness + the judge of its runs.

A launch run has no shared address space, so :func:`judge` feeds each
child's JSON report through the simulator's :class:`InvariantMonitor`
after the fact.  The unit tests here attack that judge with fabricated
reports (it must catch every violation class and stay quiet on clean
runs); the slow-marked tests spawn real subprocesses end to end and
cross-check the decisions against the simulator run with identical
inputs.
"""

from __future__ import annotations

import asyncio
import json
import tempfile

import pytest

from repro.config import SystemConfig
from repro.core.api import DEFAULT_INSTANCE, run_byzantine_agreement
from repro.net import launch
from repro.net.journal import Journal
from repro.net.launch import judge, run_processes

UNANIMOUS = [1, 1, 1, 1]


def _report(pid, decisions=None, coins=None, prior=None, shuns=()):
    return {
        "pid": pid,
        "decisions": {k: list(v) for k, v in (decisions or {}).items()},
        "coins": coins or {},
        "rejoined": prior is not None,
        "prior_decisions": {k: list(v) for k, v in (prior or {}).items()},
        "shuns": list(shuns),
    }


def _judge(outcomes, inputs=None):
    return judge(SystemConfig(n=4), inputs, outcomes)


def _kinds(verdict):
    return [x["kind"] for x in verdict["violations"]]


# ---------------------------------------------------------------------------
# judge: the monitor over fabricated reports
# ---------------------------------------------------------------------------


def test_verdict_clean_run_is_safe():
    verdict = _judge(
        {pid: _report(pid, {"aba": (1, pid)}) for pid in (1, 2, 3, 4)},
        inputs=UNANIMOUS,
    )
    assert verdict["violations"] == []
    assert len(verdict["reports"]) == 4
    assert len(verdict["decisions"]) == 4
    assert verdict["max_round"] == 4


def test_verdict_catches_agreement_safety():
    verdict = _judge(
        {1: _report(1, {"aba": (0, 1)}), 2: _report(2, {"aba": (1, 1)})}
    )
    assert _kinds(verdict) == ["agreement-safety"]


def test_verdict_catches_validity():
    verdict = _judge(
        # unanimous 1 -> decided 0
        {pid: _report(pid, {"aba": (0, 2)}) for pid in (1, 2, 3, 4)},
        inputs=UNANIMOUS,
    )
    # They did agree — on the wrong bit — and each one did decide.
    assert set(_kinds(verdict)) == {"validity"}


def test_verdict_validity_not_triggered_by_split_inputs():
    verdict = _judge(
        {pid: _report(pid, {"aba": (0, 3)}) for pid in (1, 2, 3, 4)},
        inputs=[0, 1, 0, 1],
    )
    assert verdict["violations"] == []


def test_verdict_catches_partial_liveness():
    verdict = _judge(
        {
            1: _report(1, {"aba": (1, 2)}),
            2: _report(2, {"aba": (1, 2)}),
            3: _report(3),  # reported, never decided
        },
        inputs=UNANIMOUS,
    )
    [violation] = verdict["violations"]
    assert violation["kind"] == "liveness"
    assert violation["detail"]["missing"] == [3]


def test_verdict_catches_zero_decider_liveness():
    """A run where *nobody* decided gives the monitor no decision at all;
    the given inputs must still make it fail liveness."""
    verdict = _judge(
        {pid: _report(pid) for pid in (1, 2, 3, 4)}, inputs=UNANIMOUS
    )
    assert _kinds(verdict) == ["liveness"]
    assert verdict["violations"][0]["detail"]["missing"] == [1, 2, 3, 4]


def test_verdict_liveness_waived_when_not_expected():
    verdict = _judge({1: _report(1, {"aba": (1, 2)}), 2: _report(2)})
    assert verdict["violations"] == []


def test_verdict_coin_tallies_split_is_legal():
    """Honest coin outputs may split (probability <= epsilon per session);
    the verdict tallies agreed vs split but never flags a violation."""
    verdict = _judge(
        {pid: _report(pid, coins={"0": 1, "1": pid % 2}) for pid in (1, 2, 3, 4)}
    )
    assert verdict["coin_invocations"] == 2
    assert verdict["coin_agreed"] == 1
    assert verdict["coin_split"] == 1
    assert verdict["violations"] == []


def test_verdict_catches_self_contradiction():
    """A relaunched process contradicting its own journaled decision is a
    safety violation even when the cluster happens to agree with it."""
    verdict = _judge({3: _report(3, {"aba": (1, 2)}, prior={"aba": (0, 2)})})
    assert _kinds(verdict) == ["self-contradiction"]
    assert verdict["violations"][0]["detail"]["prior"] == 0
    assert verdict["reports"][3]["rejoined"]


def test_verdict_records_a_deviant_decider_once():
    """pid 3 decided 0, journaled and current, against 1 everywhere else:
    one agreement-safety (its identical re-report is a trail note), and
    the verdict's decisions still name pid 3."""
    verdict = _judge(
        {
            **{pid: _report(pid, {"aba": (1, 2)}) for pid in (1, 2, 4)},
            3: _report(3, {"aba": (0, 2)}, prior={"aba": (0, 2)}),
        },
        inputs=UNANIMOUS,
    )
    assert _kinds(verdict) == ["agreement-safety"]
    assert ("aba", 3, 0, 2) in verdict["decisions"]


def test_verdict_consistent_rejoin_is_clean():
    verdict = _judge({3: _report(3, {"aba": (1, 2)}, prior={"aba": (1, 2)})})
    assert verdict["violations"] == []


def test_verdict_mark_hung():
    verdict = _judge({1: _report(1, {"aba": (1, 1)}), 4: "hung"})
    [violation] = verdict["violations"]
    assert violation["kind"] == "hung"
    assert violation["detail"]["pid"] == 4


def test_verdict_catches_no_report():
    verdict = _judge({1: _report(1, {"aba": (1, 1)}), 2: None})
    [violation] = verdict["violations"]
    assert violation["kind"] == "no-report"
    assert violation["detail"]["missing"] == [2]


def test_verdict_catches_honest_shun():
    """Every launch child is honest, so a reported shun breaks the
    monitor's shun rules — and a repeat of the pair is caught too, since
    feeding goes on past a violation."""
    session = ["mw", ["cc", "solo", 0], 2, 1, "dm"]
    verdict = _judge({1: _report(1, shuns=[[2, session], [2, session]])})
    assert _kinds(verdict) == ["honest-shun", "shun-repeat"]
    assert verdict["violations"][0]["detail"]["culprit"] == 2
    assert verdict["shun_pairs"] == [(1, 2)]


# ---------------------------------------------------------------------------
# End to end: real OS processes, judged by the same monitor
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
    assert len(verdict["reports"]) == 4
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
    assert len(verdict["reports"]) == 3
    decided = {pid for _, pid, _, _ in verdict["decisions"]}
    assert decided == {1, 2, 4}
    assert {value for _, _, value, _ in verdict["decisions"]} == {0}


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
    assert len(verdict["reports"]) == 4
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
    assert second["reports"][3]["rejoined"]


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


@pytest.mark.slow
def test_launch_overall_deadline_reaps_a_wedged_child(tmp_path, monkeypatch):
    """Without ``hung_after`` a wedged child is still caught: at the run's
    overall deadline the call returns a verdict naming it ``hung``, every
    child is reaped, and the temporary journal directory is removed."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    spawned = []
    real_exec = asyncio.create_subprocess_exec

    async def recording_exec(*argv, **kwargs):
        spawned.append(await real_exec(*argv, **kwargs))
        return spawned[-1]

    monkeypatch.setattr(asyncio, "create_subprocess_exec", recording_exec)
    verdict = asyncio.run(
        run_processes(4, inputs=[0, 0, 0, 0], seed=93, timeout=3, hang={2})
    )
    assert _kinds(verdict) == ["hung"]
    assert verdict["violations"][0]["detail"]["pid"] == 2
    assert {pid for _, pid, _, _ in verdict["decisions"]} == {1, 3, 4}
    assert len(spawned) == 4
    assert all(child.returncode is not None for child in spawned)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.slow
def test_launch_cli_prints_the_verdict_without_reports(capsys):
    code = launch.main(
        ["--n", "4", "--inputs", "1,1,1,1", "--seed", "424",
         "--timeout", "60", "--hung-after", "30"]
    )
    verdict = json.loads(capsys.readouterr().out)
    assert code == 0
    assert verdict["violations"] == []
    assert "reports" not in verdict
    assert [pid for _, pid, _, _ in verdict["decisions"]] == [1, 2, 3, 4]
