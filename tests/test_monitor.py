"""Tests for the runtime invariant monitor.

The positive direction (real runs stay clean) is covered by the campaign
tests; here the monitor itself is put under the microscope — including
the *negative* fixtures proving each invariant actually fires.
"""

from __future__ import annotations

import pytest

from repro.adversary.behaviors import SilentBehavior
from repro.config import SystemConfig
from repro.core.api import run_byzantine_agreement
from repro.errors import ReproError
from repro.sim.monitor import InvariantMonitor, InvariantViolation
from repro.sim.runtime import Runtime


def _monitored_runtime(n=4, round_bound=None):
    rt = Runtime(SystemConfig(n=n, seed=0))
    mon = InvariantMonitor(round_bound=round_bound)
    mon.install(rt)
    return rt, mon


class TestWiring:
    def test_install_registers_on_runtime(self):
        rt, mon = _monitored_runtime()
        assert rt.monitor is mon

    def test_double_install_rejected(self):
        rt, mon = _monitored_runtime()
        with pytest.raises(ReproError):
            InvariantMonitor().install(rt)
        mon.install(rt)  # re-installing the same monitor is idempotent

    def test_expect_inputs_only_stores_unanimity(self):
        _, mon = _monitored_runtime()
        mon.expect_inputs("a", {1: 1, 2: 1, 3: 1, 4: 1})
        mon.expect_inputs("b", {1: 0, 2: 1, 3: 0, 4: 1})
        mon.expect_inputs("c", {1: 1, 2: 1})  # not all n processes
        assert mon._unanimous == {"a": 1}


class TestAgreementSafety:
    def test_two_honest_decisions_must_match(self):
        """Negative fixture: a seeded safety violation trips the monitor."""
        _, mon = _monitored_runtime()
        mon.on_decision("aba", 1, 0, 3)
        with pytest.raises(InvariantViolation) as err:
            mon.on_decision("aba", 2, 1, 3)
        assert err.value.kind == "agreement-safety"
        assert err.value.detail["decisions"] == {1: 0, 2: 1}
        # The trail carries the offending events for diagnosis.
        assert any(entry[1] == "decide" for entry in err.value.trail)

    def test_matching_decisions_pass(self):
        _, mon = _monitored_runtime()
        mon.on_decision("aba", 1, 1, 2)
        mon.on_decision("aba", 2, 1, 4)
        assert len(mon._decisions) == 2

    def test_a_process_contradicting_itself_fires(self):
        """Re-deciding the same value is fine; a different one is a
        self-contradiction that keeps both values in its detail."""
        _, mon = _monitored_runtime()
        mon.on_decision("aba", 3, 0, 1)
        mon.on_decision("aba", 3, 0, 2)
        with pytest.raises(InvariantViolation) as err:
            mon.on_decision("aba", 3, 1, 3)
        assert err.value.kind == "self-contradiction"
        assert err.value.detail == {
            "instance": "aba", "pid": 3, "prior": 0, "decided": 1,
        }

    def test_an_identical_repeat_is_a_trail_note_only(self):
        """A relaunch re-reporting what it journaled (same instance, pid
        and value) is no new decision: the first one's round stays."""
        _, mon = _monitored_runtime()
        mon.expect_inputs("aba", {1: 1, 2: 1, 3: 1, 4: 1})
        mon.on_decision("aba", 2, 1, 3)
        mon.on_decision("aba", 2, 1, 5)
        assert mon.verdict()["decisions"] == [("aba", 2, 1, 3)]
        assert [entry[1:] for entry in mon.trail] == [
            ("decide", ("aba", 2, 1, 3)), ("decide", ("aba", 2, 1, 5)),
        ]

    def test_a_violating_decision_is_still_recorded(self):
        """The offending decision is stored before the rule fires, so the
        verdict lists it and later deciders are held to the instance's
        first honest decision, not to the deviant."""
        _, mon = _monitored_runtime()
        mon.on_decision("aba", 1, 1, 2)
        with pytest.raises(InvariantViolation) as err:
            mon.on_decision("aba", 3, 0, 2)
        assert err.value.kind == "agreement-safety"
        mon.on_decision("aba", 4, 1, 2)
        assert [d[1:3] for d in mon.verdict()["decisions"]] == [
            (1, 1), (3, 0), (4, 1),
        ]

    def test_instances_are_independent(self):
        _, mon = _monitored_runtime()
        mon.on_decision("a", 1, 0, 1)
        mon.on_decision("b", 2, 1, 1)  # different instance: no conflict

    def test_corrupt_decisions_ignored(self):
        rt, mon = _monitored_runtime()
        SilentBehavior().install(rt.host(2))
        mon.on_decision("aba", 1, 0, 1)
        mon.on_decision("aba", 2, 1, 1)  # corrupt pid: free to "decide" junk


class TestValidity:
    def test_unanimous_inputs_pin_the_decision(self):
        _, mon = _monitored_runtime()
        mon.expect_inputs("aba", {1: 1, 2: 1, 3: 1, 4: 1})
        with pytest.raises(InvariantViolation) as err:
            mon.on_decision("aba", 1, 0, 2)
        assert err.value.kind == "validity"

    def test_split_inputs_allow_either(self):
        _, mon = _monitored_runtime()
        mon.expect_inputs("aba", {1: 0, 2: 1, 3: 0, 4: 1})
        mon.on_decision("aba", 1, 0, 2)


class TestLiveness:
    def test_round_beyond_bound_fires(self):
        _, mon = _monitored_runtime(round_bound=10)
        mon.on_round("aba", 1, 10)
        with pytest.raises(InvariantViolation) as err:
            mon.on_round("aba", 1, 11)
        assert err.value.kind == "liveness"

    def test_no_bound_never_fires(self):
        _, mon = _monitored_runtime(round_bound=None)
        mon.on_round("aba", 1, 10_000)
        assert mon.verdict()["max_round"] == 10_000


class TestShunning:
    def test_pair_shuns_at_most_once(self):
        rt, mon = _monitored_runtime()
        SilentBehavior().install(rt.host(3))
        mon.on_shun(1, 3, "s1")
        with pytest.raises(InvariantViolation) as err:
            mon.on_shun(1, 3, "s2")
        assert err.value.kind == "shun-repeat"

    def test_distinct_pairs_are_fine(self):
        rt, mon = _monitored_runtime()
        SilentBehavior().install(rt.host(3))
        mon.on_shun(1, 3, "s1")
        mon.on_shun(2, 3, "s1")
        mon.on_shun(3, 1, "s1")  # corrupt observer may shun whomever
        assert mon.verdict()["shun_pairs"] == [(1, 3), (2, 3), (3, 1)]

    def test_honest_never_shuns_honest(self):
        _, mon = _monitored_runtime()
        with pytest.raises(InvariantViolation) as err:
            mon.on_shun(1, 2, "s1")
        assert err.value.kind == "honest-shun"

    def test_budget_t_times_n_minus_t(self):
        rt, mon = _monitored_runtime()  # n=4, t=1: budget 1*(4-1) = 3
        SilentBehavior().install(rt.host(4))
        for observer in (1, 2, 3):
            mon.on_shun(observer, 4, "s1")
        assert mon._honest_shuns == 3

    def test_budget_overflow_fires(self):
        rt, mon = _monitored_runtime()
        # Force the overflow arithmetic without n-2 corrupt hosts: shrink
        # the budget to zero and shun once.
        mon._t = 0
        SilentBehavior().install(rt.host(4))
        with pytest.raises(InvariantViolation) as err:
            mon.on_shun(1, 4, "s1")
        assert err.value.kind == "shun-budget"


class TestCoinTallies:
    def test_split_coin_is_tallied_not_raised(self):
        rt, mon = _monitored_runtime()
        SilentBehavior().install(rt.host(4))
        for pid, value in ((1, 0), (2, 0), (3, 0)):
            mon.on_coin_output("c1", pid, value)
        for pid, value in ((1, 0), (2, 1), (3, 0)):
            mon.on_coin_output("c2", pid, value)
        mon.on_coin_output("c2", 4, 7)  # corrupt output: ignored
        verdict = mon.verdict()
        assert verdict["coin_invocations"] == 2
        assert verdict["coin_agreed"] == 1
        assert verdict["coin_split"] == 1


class TestVerdictDeterminism:
    def test_verdict_is_sorted_plain_data(self):
        _, mon = _monitored_runtime()
        mon.on_decision("aba", 3, 1, 2)
        mon.on_decision("aba", 1, 1, 2)
        mon.on_corruption(2, "crash", 5.0)
        mon.on_recovery(2, 9.0)
        verdict = mon.verdict()
        assert verdict["decisions"] == [("aba", 1, 1, 2), ("aba", 3, 1, 2)]
        assert verdict["corruptions"] == [(5.0, 2, "crash")]
        assert verdict["recoveries"] == [(9.0, 2)]


class TestEndToEnd:
    def test_clean_run_yields_clean_verdict(self):
        cfg = SystemConfig(n=4, seed=3)
        mon = InvariantMonitor(round_bound=100)
        result = run_byzantine_agreement([1, 1, 1, 1], cfg, monitor=mon)
        assert result.agreed and result.decision == 1
        verdict = mon.verdict()
        assert [d[2] for d in verdict["decisions"]] == [1, 1, 1, 1]
        assert verdict["max_round"] >= 1

    def test_liveness_watchdog_raises_out_of_the_run(self):
        """An absurdly tight bound makes a real run trip the watchdog —
        proving violations propagate out of the event loop."""
        cfg = SystemConfig(n=4, seed=3)
        mon = InvariantMonitor(round_bound=0)
        with pytest.raises(InvariantViolation) as err:
            run_byzantine_agreement(
                [0, 1, 0, 1], cfg, coin=("ideal", 1.0), monitor=mon
            )
        assert err.value.kind == "liveness"
