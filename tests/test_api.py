"""Tests for the high-level API surface (`repro.core.api` + package root)."""

from __future__ import annotations

import pytest

import repro
from repro.adversary.controller import Adversary, silent_adversary
from repro.config import SystemConfig
from repro.core.agreement import ABAProcess
from repro.core.api import (
    BatchAgreementResult,
    build_stack,
    make_coins,
    run_byzantine_agreement,
    run_byzantine_agreement_batch,
    run_mwsvss,
    run_svss,
)
from repro.core.coin import LocalCoin, SharedCoinGate
from repro.errors import ConfigurationError
from repro.net.transport import NetworkNode, TransportConfig
from repro.sim.experiments import Scenario
from repro.sim.monitor import InvariantMonitor

IDEAL = ("ideal", 1.0)


def _stack(cfg, **kw):
    return build_stack(cfg, **kw)


def _solo(cfg, **kw):
    return run_byzantine_agreement([1] * 4, cfg, coin=IDEAL, **kw)


def _batch(cfg, **kw):
    return run_byzantine_agreement_batch([[1] * 4], cfg, coin=IDEAL, **kw)


#: Settable values that went, each with the value every run used and every
#: signature that took it: naming one is a ``TypeError`` before anything
#: runs.  ``shared_coin`` was a result field, the rest were settable.
REMOVED_OPTIONS = [
    ("measure_bytes", True, (_stack, _solo, _batch)),
    ("instances", 3, (_stack, _solo, _batch)),
    ("share_coin", True, (_batch, lambda cfg, **kw: Scenario(n=4, seed=0, **kw))),
    ("shared_coin", True, (lambda cfg, **kw: BatchAgreementResult(**kw),)),
    ("tag", "aba", (_solo,)),
    (
        "instance",
        "aba",
        (lambda cfg, **kw: make_coins(_stack(cfg, with_vss=False), IDEAL, **kw),),
    ),
    (
        "shared_tag",
        "aba",
        (lambda cfg, **kw: SharedCoinGate(LocalCoin(cfg.derive_rng("x")), 1, **kw),),
    ),
    (
        "counter",
        0,
        (
            lambda cfg, **kw: run_mwsvss(cfg, dealer=1, moderator=2, secret=7, **kw),
            lambda cfg, **kw: run_svss(cfg, dealer=1, secret=7, **kw),
        ),
    ),
    ("trail_limit", 64, (lambda cfg, **kw: InvariantMonitor(**kw),)),
    ("context", None, (lambda cfg, **kw: NetworkNode(cfg, 1, "j", **kw),)),
    ("backoff_jitter", 0.25, (lambda cfg, **kw: TransportConfig(**kw),)),
    ("window", 1024, (lambda cfg, **kw: TransportConfig(**kw),)),
]


class TestPackageRoot:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_main_entry_points_exposed(self):
        assert repro.run_byzantine_agreement is run_byzantine_agreement
        assert repro.SystemConfig is SystemConfig


class TestBuildStack:
    def test_components_wired(self, cfg4):
        stack = build_stack(cfg4)
        assert set(stack.broadcasts) == set(cfg4.pids)
        assert set(stack.vss) == set(cfg4.pids)
        assert stack.trace is stack.runtime.trace

    def test_without_vss(self, cfg4):
        stack = build_stack(cfg4, with_vss=False)
        assert stack.vss == {}
        assert set(stack.broadcasts) == set(cfg4.pids)

    def test_adversary_installed(self, cfg4):
        adversary = silent_adversary([2])
        stack = build_stack(cfg4, adversary=adversary)
        assert stack.runtime.host(2).outbound_filter is not None
        assert stack.nonfaulty() == [1, 3, 4]

    @pytest.mark.parametrize(
        "keyword, value, calls",
        REMOVED_OPTIONS,
        ids=[f"{keyword}-{value}" for keyword, value, _ in REMOVED_OPTIONS],
    )
    def test_removed_options_raise_type_error(self, cfg4, keyword, value, calls):
        """Each value is gone from every signature that took it."""
        for call in calls:
            with pytest.raises(TypeError, match=keyword):
                call(cfg4, **{keyword: value})

    def test_oversized_adversary_rejected(self, cfg4):
        from repro.adversary.behaviors import SilentBehavior

        adversary = Adversary({1: SilentBehavior(), 2: SilentBehavior()})
        with pytest.raises(ConfigurationError):
            build_stack(cfg4, adversary=adversary)


class TestWhoIsNamed:
    """Entry points validate the pids they are given before anything runs:
    an input map names exactly ``config.pids``, a dealer or moderator is
    one of them."""

    @pytest.fixture
    def started(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            ABAProcess, "start", lambda self, value: calls.append(self.pid)
        )
        return calls

    @pytest.mark.parametrize(
        "inputs",
        [{1: 0, 2: 1}, {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}, {0: 1, 1: 1, 2: 1, 3: 1}],
        ids=["incomplete", "oversized", "shifted"],
    )
    def test_input_map_must_name_exactly_the_pids(self, cfg4, inputs, started):
        with pytest.raises(ConfigurationError):
            run_byzantine_agreement(inputs, cfg4, coin=IDEAL)
        with pytest.raises(ConfigurationError):
            run_byzantine_agreement_batch([[1] * 4, inputs], cfg4, coin=IDEAL)
        assert started == []

    def test_oversized_map_cannot_disarm_validity(self, cfg4, monkeypatch):
        """``expect_inputs`` arms validity only for an n-entry unanimous
        map; an (n+1)-entry one used to reach it and switch the check off."""
        seen = []
        monkeypatch.setattr(
            InvariantMonitor,
            "expect_inputs",
            lambda self, instance, inputs: seen.append(inputs),
        )
        with pytest.raises(ConfigurationError):
            run_byzantine_agreement(
                {pid: 1 for pid in range(1, 6)},
                cfg4,
                coin=IDEAL,
                monitor=InvariantMonitor(),
            )
        assert seen == []

    @pytest.mark.parametrize("dealer, moderator", [(9, 2), (1, 0), (1, 5)])
    def test_mwsvss_parties_must_be_pids(self, cfg4, dealer, moderator):
        with pytest.raises(ConfigurationError):
            run_mwsvss(cfg4, dealer=dealer, moderator=moderator, secret=7)

    @pytest.mark.parametrize("dealer", [0, 5])
    def test_svss_dealer_must_be_a_pid(self, cfg4, dealer):
        with pytest.raises(ConfigurationError):
            run_svss(cfg4, dealer=dealer, secret=7)


class TestResultObjects:
    def test_agreement_result_properties(self):
        cfg = SystemConfig(n=4, seed=3)
        result = run_byzantine_agreement([1, 1, 1, 1], cfg, coin=("ideal", 1.0))
        assert result.agreed
        assert result.decision == 1
        assert result.max_rounds == max(result.rounds.values())
        assert result.shun_pairs == set()
        assert result.adversary_description == "none"
        assert result.sim_time > 0

    def test_agreement_result_with_adversary_description(self):
        cfg = SystemConfig(n=4, seed=3)
        result = run_byzantine_agreement(
            [1, 1, 1, 1], cfg, coin=("ideal", 1.0), adversary=silent_adversary([4])
        )
        assert "Silent" in result.adversary_description
        assert result.nonfaulty == [1, 2, 3]

    def test_non_terminated_result_not_agreed(self):
        from repro.adversary.schedulers import VoteBalancingScheduler
        from repro.protocols.cr_avss import cr_coin

        cfg = SystemConfig(n=4, seed=1)
        result = run_byzantine_agreement(
            [0, 1, 0, 1],
            cfg,
            coin=cr_coin(cfg, 1.0),
            scheduler=VoteBalancingScheduler(cfg),
            max_rounds=10,
        )
        assert not result.terminated
        assert not result.agreed

    def test_vss_result_output_values(self):
        cfg = SystemConfig(n=4, seed=5)
        result, _ = run_svss(cfg, dealer=1, secret=11)
        assert result.output_values() == {11}
        assert result.output_values([1, 2]) == {11}


class TestCoinSpecs:
    def test_ideal_spec_tuple(self):
        cfg = SystemConfig(n=4, seed=0)
        result = run_byzantine_agreement([0, 1, 0, 1], cfg, coin=("ideal", 0.9))
        assert result.agreed

    def test_callable_spec(self):
        from repro.core.coin import LocalCoin

        cfg = SystemConfig(n=4, seed=0)
        made = []

        def factory(stack, pid):
            coin = LocalCoin(cfg.derive_rng("custom", pid))
            made.append(pid)
            return coin

        result = run_byzantine_agreement([1, 1, 1, 1], cfg, coin=factory)
        assert result.agreed
        assert sorted(made) == [1, 2, 3, 4]

    def test_bad_ideal_probability_rejected(self):
        cfg = SystemConfig(n=4, seed=0)
        with pytest.raises(Exception):
            run_byzantine_agreement([1, 1, 1, 1], cfg, coin=("ideal", 2.0))


class TestDeterminism:
    def test_svss_replay_bitwise(self):
        a, _ = run_svss(SystemConfig(n=4, seed=99), dealer=2, secret=8)
        b, _ = run_svss(SystemConfig(n=4, seed=99), dealer=2, secret=8)
        assert a.outputs == b.outputs
        assert a.sim_time == b.sim_time
        assert a.trace.total_messages == b.trace.total_messages

    def test_different_seed_different_schedule(self):
        a, _ = run_svss(SystemConfig(n=4, seed=1), dealer=2, secret=8)
        b, _ = run_svss(SystemConfig(n=4, seed=2), dealer=2, secret=8)
        assert a.sim_time != b.sim_time
