"""Tests for the Ben-Or 1983 baseline (n > 5t)."""

from __future__ import annotations

import random

import pytest

from repro.adversary.behaviors import ABALiarBehavior, CrashBehavior, SilentBehavior
from repro.adversary.controller import Adversary
from repro.config import SystemConfig
from repro.errors import ConfigurationError, ProtocolError
from repro.protocols.benor import BenOrProcess, run_benor
from repro.sim.runtime import Runtime


def cfg6(seed=0):
    return SystemConfig(n=6, t=1, seed=seed)


class TestResilience:
    def test_rejects_insufficient_resilience(self):
        with pytest.raises(ConfigurationError):
            run_benor([0] * 5, SystemConfig(n=5, t=1, seed=0))

    def test_accepts_n_greater_5t(self):
        result = run_benor([1] * 6, cfg6())
        assert result.agreed


class TestValidity:
    @pytest.mark.parametrize("v", [0, 1])
    def test_unanimous_inputs(self, v):
        result = run_benor([v] * 6, cfg6(seed=v))
        assert result.agreed and all(
            d == v for d in result.decisions.values()
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_unanimous_with_silent_fault(self, seed):
        adversary = Adversary({6: SilentBehavior()})
        result = run_benor([1] * 6, cfg6(seed), adversary=adversary)
        assert result.agreed
        assert all(result.decisions[p] == 1 for p in range(1, 6))


class TestAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_split_inputs(self, seed):
        result = run_benor([0, 1, 0, 1, 0, 1], cfg6(seed))
        assert result.agreed, result.decisions

    @pytest.mark.parametrize("seed", range(4))
    def test_with_liar(self, seed):
        adversary = Adversary({3: ABALiarBehavior(random.Random(seed))})
        result = run_benor([0, 1, 0, 1, 0, 1], cfg6(seed + 10), adversary=adversary)
        assert result.agreed

    @pytest.mark.parametrize("seed", range(4))
    def test_with_crash(self, seed):
        adversary = Adversary({2: CrashBehavior(after_messages=10)})
        result = run_benor([1, 0, 1, 0, 1, 0], cfg6(seed + 20), adversary=adversary)
        assert result.agreed


class TestDynamics:
    def test_unanimous_decides_fast(self):
        result = run_benor([1] * 6, cfg6())
        assert result.max_rounds <= 2

    def test_rounds_grow_with_contention(self):
        """Split inputs need more rounds than unanimous ones on average —
        the qualitative shape behind the exponential-baseline claim."""
        split_rounds, unan_rounds = [], []
        for seed in range(10):
            split_rounds.append(
                run_benor([0, 1, 0, 1, 0, 1], cfg6(seed + 50)).max_rounds
            )
            unan_rounds.append(run_benor([1] * 6, cfg6(seed + 50)).max_rounds)
        assert sum(split_rounds) > sum(unan_rounds)

    def test_max_rounds_cap_reported(self):
        """With a round cap of 0 the run reports non-termination."""
        result = run_benor([0, 1, 0, 1, 0, 1], cfg6(3), max_rounds=0)
        assert not result.terminated
        assert not result.agreed

    def test_deterministic_replay(self):
        a = run_benor([0, 1, 0, 1, 0, 1], cfg6(9))
        b = run_benor([0, 1, 0, 1, 0, 1], cfg6(9))
        assert a.decisions == b.decisions
        assert a.rounds == b.rounds


#: ``(decisions, rounds, sim_time, events_dispatched)`` of
#: ``run_benor([0, 1, 0, 1, 0, 1], cfg6(seed))`` for seeds 0-9, written at
#: ``a332de3`` by the stand-alone driver that polled its predicate after
#: every event.  The run must stop at the same event now that the process
#: announces its rounds and decisions and the shared driver waits on them.
SPLIT_AT_A332DE3 = [
    ({1: 1, 2: 1, 6: 1, 4: 1, 5: 1, 3: 1}, {1: 8, 2: 8, 3: 8, 4: 8, 5: 8, 6: 8}, 101.69216805342393, 509),
    ({5: 1, 2: 1, 3: 1, 1: 1, 4: 1, 6: 1}, {1: 4, 2: 4, 3: 4, 4: 4, 5: 4, 6: 4}, 46.59065610726932, 225),
    ({6: 1, 4: 1, 2: 1, 5: 1, 3: 1, 1: 1}, {1: 6, 2: 5, 3: 6, 4: 5, 5: 6, 6: 5}, 73.47331507304527, 351),
    ({4: 1, 1: 1, 6: 1, 2: 1, 3: 1, 5: 1}, {1: 4, 2: 4, 3: 4, 4: 4, 5: 5, 6: 4}, 56.88512078540487, 271),
    ({3: 0, 4: 0, 6: 0, 2: 0, 1: 0, 5: 0}, {1: 3, 2: 3, 3: 3, 4: 3, 5: 3, 6: 3}, 32.241604273086764, 147),
    ({6: 1, 2: 1, 4: 1, 5: 1, 1: 1, 3: 1}, {1: 3, 2: 3, 3: 3, 4: 3, 5: 3, 6: 3}, 29.840751713283574, 148),
    ({5: 1, 2: 1, 6: 1, 3: 1, 1: 1, 4: 1}, {1: 3, 2: 3, 3: 3, 4: 3, 5: 3, 6: 3}, 31.21169959302216, 148),
    ({4: 1, 6: 1, 1: 1, 3: 1, 2: 1, 5: 1}, {1: 3, 2: 3, 3: 3, 4: 3, 5: 3, 6: 3}, 29.013324947009327, 147),
    ({3: 0, 1: 0, 6: 0, 4: 0, 5: 0, 2: 0}, {1: 3, 2: 3, 3: 3, 4: 3, 5: 3, 6: 3}, 32.29189694897782, 147),
    ({5: 1, 6: 1, 4: 1, 1: 1, 3: 1, 2: 1}, {1: 4, 2: 4, 3: 4, 4: 4, 5: 4, 6: 4}, 46.39067319395941, 217),
]  # fmt: skip

#: Same, seed 9 with process 6 silent: it had not decided when the five
#: nonfaulty processes had, and is not waited on.
SILENT_AT_A332DE3 = (
    {1: 1, 4: 1, 5: 1, 2: 1, 3: 1}, {1: 4, 2: 4, 3: 4, 4: 4, 5: 4}, 51.28873575841287, 181,
)  # fmt: skip


def transcript(result):
    return (
        result.decisions,
        result.rounds,
        result.sim_time,
        result.events_dispatched,
    )


class TestFoldIntoTheSharedDriver:
    @pytest.mark.parametrize("seed", range(10))
    def test_split_inputs_reproduce_the_stand_alone_driver(self, seed):
        result = run_benor([0, 1, 0, 1, 0, 1], cfg6(seed))
        assert transcript(result) == SPLIT_AT_A332DE3[seed]

    def test_silent_fault_reproduces_the_stand_alone_driver(self):
        adversary = Adversary({6: SilentBehavior()})
        result = run_benor([0, 1, 0, 1, 0, 1], cfg6(9), adversary=adversary)
        assert transcript(result) == SILENT_AT_A332DE3
        assert result.nonfaulty == [1, 2, 3, 4, 5]

    def test_waits_on_announced_changes_not_on_every_event(self):
        """``notify()`` on round entry and on decide is what lets the
        driver wait ``on_change=True``: the predicate runs once per
        announced change, not once per event."""
        result = run_benor([0, 1, 0, 1, 0, 1], cfg6(0))
        assert result.predicate_evals < result.events_dispatched // 4


class TestInterface:
    def test_bad_input_rejected(self):
        cfg = cfg6()
        runtime = Runtime(cfg)
        process = BenOrProcess(runtime.host(1))
        with pytest.raises(ProtocolError):
            process.start(2)

    def test_double_start_rejected(self):
        cfg = cfg6()
        runtime = Runtime(cfg)
        process = BenOrProcess(runtime.host(1))
        process.start(1)
        with pytest.raises(ProtocolError):
            process.start(0)

    def test_wrong_input_count(self):
        with pytest.raises(ConfigurationError):
            run_benor([1, 0], cfg6())

    def test_dict_inputs(self):
        result = run_benor({p: 1 for p in range(1, 7)}, cfg6())
        assert result.agreed
