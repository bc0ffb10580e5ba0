"""The one agreement driver (``core.api.AgreementDriver``): its counted
completion rule against the from-scratch re-scan it replaced
(``tests/reference/completion.py``).

The driver keeps one undecided-target count per instance and one set of
overflowed pids, and recounts only when an adaptive adversary shrinks the
targets (which can turn an overflowed instance back to not-done).  At
every evaluation it must answer what the re-scan answers, and the runs
must dispatch the events and predicate evaluations the re-scanning driver
did (the figures below were recorded from it).
"""

from __future__ import annotations

import pytest
from reference import completion

from repro import SystemConfig, run_byzantine_agreement, run_byzantine_agreement_batch
from repro.adversary.adaptive import AdaptiveAdversary
from repro.core.api import AgreementDriver
from repro.sim.scheduler import FifoScheduler


@pytest.fixture
def evaluations(monkeypatch):
    """Every ``finished()`` answer paired with the re-scan's."""
    pairs = []
    counted = AgreementDriver.finished

    def checked(driver):
        answer = counted(driver)
        pairs.append((answer, completion.finished(
            driver.decisions, driver.processes, driver.targets, driver.max_rounds
        )))
        return answer

    monkeypatch.setattr(AgreementDriver, "finished", checked)
    return pairs


def assert_same(pairs, result, events, evals):
    assert all(counted == rescan for counted, rescan in pairs)
    assert pairs[-1] == (True, True)  # the run stopped when both said so
    assert (result.events_dispatched, result.predicate_evals) == (events, evals)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_counted_rule_matches_rescan_on_the_ideal_batch(seed, evaluations):
    """``aba_ideal_k16``'s operation: K=16 rotated split rows at n=13."""
    rows = [[(i + shift) % 2 for i in range(13)] for shift in range(16)]
    result = run_byzantine_agreement_batch(
        rows, SystemConfig(n=13, seed=seed), coin=("ideal", 1.0),
        scheduler=FifoScheduler(),
    )
    assert result.agreed
    assert_same(evaluations, result, 12961, 456)


def test_counted_rule_matches_rescan_at_a_max_rounds_stop(evaluations):
    result = run_byzantine_agreement(
        [0, 1, 0, 1], SystemConfig(n=4, seed=2), coin="local", max_rounds=2
    )
    assert not result.terminated and result.rounds[3] == 3
    assert_same(evaluations, result, 838, 89)


def test_counted_rule_matches_rescan_under_an_adaptive_adversary(evaluations):
    cfg = SystemConfig(n=4, seed=2)
    result = run_byzantine_agreement(
        [0, 1, 0, 1], cfg, coin=("ideal", 1.0), adversary=AdaptiveAdversary(cfg, 2)
    )
    assert result.agreed and result.nonfaulty == [1, 2, 3]
    assert_same(evaluations, result, 610, 66)
