"""Tests for the shunning common coin (paper §5, Definition 2).

Full SCC flips cost a few seconds each (they run ~190k simulated messages),
so the fault-free flips are shared module-wide via a cached fixture.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.behaviors import BiasedCoinBehavior, SilentBehavior
from repro.adversary.controller import Adversary
from repro.config import SystemConfig
from repro.core.api import flip_common_coin
from repro.core.coin import IdealCoin, IdealCoinOracle, LocalCoin
from repro.errors import ProtocolError

SEEDS = (50, 51, 52, 53)
CSID = ("cc", "solo", 0)


@pytest.fixture(scope="module")
def coin_runs():
    runs = {}
    for seed in SEEDS:
        cfg = SystemConfig(n=4, seed=seed)
        runs[seed] = flip_common_coin(cfg)
    return runs


class TestSCCTermination:
    """Definition 2, Termination: all nonfaulty processes terminate."""

    def test_all_output(self, coin_runs):
        for seed, (result, _) in coin_runs.items():
            assert set(result.outputs) == {1, 2, 3, 4}, f"seed {seed}"
            assert all(v in (0, 1) for v in result.outputs.values())

    def test_with_silent_process(self):
        cfg = SystemConfig(n=4, seed=7)
        adversary = Adversary({2: SilentBehavior()})
        result, _ = flip_common_coin(cfg, adversary=adversary)
        assert {1, 3, 4} <= set(result.outputs)


class TestSCCCorrectness:
    """Definition 2, Correctness: fault-free invocations are unanimous and
    both values occur (>= 1/4 frequency each in theory; benchmark E3
    measures the rates over many more seeds)."""

    def test_unanimity(self, coin_runs):
        for seed, (result, _) in coin_runs.items():
            assert len(set(result.outputs.values())) == 1, f"seed {seed}"

    def test_both_values_occur(self, coin_runs):
        values = {
            next(iter(result.outputs.values())) for result, _ in coin_runs.values()
        }
        assert values == {0, 1}

    def test_biased_dealer_cannot_fix_coin(self):
        """A corrupt process dealing all-zero secrets cannot force the
        outcome: honest dealers' secrets keep every slot value uniform."""
        outputs = []
        for seed in (400, 401, 402, 403):
            cfg = SystemConfig(n=4, seed=seed)
            adversary = Adversary({3: BiasedCoinBehavior()})
            result, _ = flip_common_coin(cfg, adversary=adversary)
            honest_values = {result.outputs[p] for p in (1, 2, 4)}
            if len(honest_values) == 1:
                outputs.append(honest_values.pop())
        assert 1 in outputs, (
            "all-zero secret dealing forced the coin to 0 in every run"
        )


class TestSCCInternals:
    def test_eval_set_frozen_and_covering(self, coin_runs):
        result, stack = coin_runs[SEEDS[0]]
        for pid in (1, 2, 3, 4):
            session = stack.runtime.host(pid).module("coin").sessions[CSID]
            assert session.eval_set is not None
            assert len(session.eval_set) >= 3
            assert session.eval_set <= session.accepted

    def test_attach_sets_meet_threshold(self, coin_runs):
        result, stack = coin_runs[SEEDS[1]]
        session = stack.runtime.host(1).module("coin").sessions[CSID]
        for j, attach in session.t_hat.items():
            assert len(attach) >= 3

    def test_party_values_in_range(self, coin_runs):
        result, stack = coin_runs[SEEDS[2]]
        session = stack.runtime.host(1).module("coin").sessions[CSID]
        assert session.party_values  # some values computed
        for value in session.party_values.values():
            assert value == -1 or 0 <= value < session.u

    def test_output_rule_zero_iff_some_zero(self, coin_runs):
        for seed, (result, stack) in coin_runs.items():
            for pid in (1, 2, 3, 4):
                session = stack.runtime.host(pid).module("coin").sessions[CSID]
                zero_seen = any(
                    session.party_values[j] == 0 for j in session.eval_set
                )
                assert result.outputs[pid] == (0 if zero_seen else 1)

    def test_supported_threshold(self, coin_runs):
        result, stack = coin_runs[SEEDS[3]]
        for pid in (1, 2, 3, 4):
            session = stack.runtime.host(pid).module("coin").sessions[CSID]
            assert len(session.supported) >= 3


class TestLocalCoin:
    def test_immediate_and_cached(self):
        coin = LocalCoin(random.Random(1))
        got = []
        coin.get(("c", 1), got.append)
        coin.get(("c", 1), got.append)
        assert got[0] == got[1]
        assert got[0] in (0, 1)

    def test_independent_across_processes(self):
        values = []
        for i in range(40):
            LocalCoin(random.Random(i)).get(("c", 0), values.append)
        assert {0, 1} <= set(values)  # they genuinely disagree sometimes


class TestIdealCoin:
    def test_perfect_agreement(self):
        oracle = IdealCoinOracle(random.Random(0), agreement=1.0)
        for r in range(20):
            per_round = {oracle.value_for(("c", r), pid) for pid in range(1, 8)}
            assert len(per_round) == 1

    def test_zero_agreement_always_splits(self):
        oracle = IdealCoinOracle(random.Random(0), agreement=0.0)
        for r in range(10):
            per_round = {oracle.value_for(("c", r), pid) for pid in range(1, 5)}
            assert per_round == {0, 1}

    def test_failure_rate_tracked(self):
        oracle = IdealCoinOracle(random.Random(0), agreement=0.5)
        for r in range(200):
            oracle.value_for(("c", r), 1)
        assert oracle.invocations == 200
        assert 60 <= oracle.failed_invocations <= 140

    def test_rejects_bad_probability(self):
        with pytest.raises(ProtocolError):
            IdealCoinOracle(random.Random(0), agreement=1.5)

    def test_front_end_caches_session(self):
        oracle = IdealCoinOracle(random.Random(0), agreement=1.0)
        coin = IdealCoin(oracle, pid=1)
        got = []
        coin.get(("c", 9), got.append)
        coin.get(("c", 9), got.append)
        assert got[0] == got[1]
