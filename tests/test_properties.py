"""Property-based end-to-end tests (hypothesis).

The headline invariant of Theorem 1, tested as a property: for *every*
combination of inputs, corruption pattern, and schedule randomness,
agreement and validity hold and every nonfaulty process decides.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.controller import random_adversary
from repro.config import SystemConfig
from repro.core.api import run_byzantine_agreement, run_mwsvss
from repro.core.mwsvss import BOTTOM
from repro.protocols.benor import run_benor
from repro.sim.scheduler import (
    ExponentialDelayScheduler,
    FifoScheduler,
    UniformDelayScheduler,
)

SAFE_KINDS = ["honest_marked", "crash", "silent", "mutator", "aba_liar"]


def make_scheduler(cfg, choice: int):
    rng = cfg.derive_rng("prop-sched")
    if choice == 0:
        return FifoScheduler()
    if choice == 1:
        return UniformDelayScheduler(rng, low=0.1, high=20.0)
    return ExponentialDelayScheduler(rng, mean=4.0)


agreement_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestAgreementInvariants:
    @agreement_settings
    @given(
        seed=st.integers(0, 10_000),
        inputs=st.lists(st.integers(0, 1), min_size=4, max_size=4),
        sched=st.integers(0, 2),
        corrupt=st.booleans(),
    )
    def test_agreement_and_validity_always_hold_n4(
        self, seed, inputs, sched, corrupt
    ):
        cfg = SystemConfig(n=4, seed=seed)
        adversary = (
            random_adversary(cfg, random.Random(seed), count=1, kinds=SAFE_KINDS)
            if corrupt
            else None
        )
        result = run_byzantine_agreement(
            inputs,
            cfg,
            coin=("ideal", 1.0),
            adversary=adversary,
            scheduler=make_scheduler(cfg, sched),
        )
        assert result.terminated
        assert result.agreed
        # validity: if all NONFAULTY inputs agree, that value is decided
        nonfaulty_inputs = {inputs[p - 1] for p in result.nonfaulty}
        if len(nonfaulty_inputs) == 1:
            assert result.decision == nonfaulty_inputs.pop()

    @agreement_settings
    @given(
        seed=st.integers(0, 10_000),
        inputs=st.lists(st.integers(0, 1), min_size=7, max_size=7),
        agreement_prob=st.sampled_from([1.0, 0.7, 0.4]),
    )
    def test_agreement_n7_with_flaky_coin(self, seed, inputs, agreement_prob):
        cfg = SystemConfig(n=7, seed=seed)
        adversary = random_adversary(
            cfg, random.Random(seed), count=2, kinds=SAFE_KINDS
        )
        result = run_byzantine_agreement(
            inputs,
            cfg,
            coin=("ideal", agreement_prob),
            adversary=adversary,
            max_rounds=400,
        )
        assert result.terminated
        assert result.agreed

    @agreement_settings
    @given(
        seed=st.integers(0, 10_000),
        inputs=st.lists(st.integers(0, 1), min_size=6, max_size=6),
    )
    def test_benor_agreement_property(self, seed, inputs):
        cfg = SystemConfig(n=6, t=1, seed=seed)
        result = run_benor(inputs, cfg, max_rounds=600)
        assert result.terminated
        assert result.agreed


class TestMWSVSSInvariants:
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        secret=st.integers(0, 2**31 - 2),
        dealer=st.integers(1, 4),
        moderator=st.integers(1, 4),
        sched=st.integers(0, 2),
    )
    def test_honest_mwsvss_always_reconstructs_secret(
        self, seed, secret, dealer, moderator, sched
    ):
        cfg = SystemConfig(n=4, prime=2**31 - 1, seed=seed)
        result, _ = run_mwsvss(
            cfg,
            dealer=dealer,
            moderator=moderator,
            secret=secret,
            scheduler=make_scheduler(cfg, sched),
        )
        assert result.share_completed == set(cfg.pids)
        assert result.outputs == {pid: secret for pid in cfg.pids}

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_byzantine_mwsvss_weak_binding_or_shun(self, seed):
        """Under a random one-process corruption, honest non-⊥ outputs
        never split without a shun record."""
        rng = random.Random(seed)
        cfg = SystemConfig(n=4, seed=seed)
        adversary = random_adversary(
            cfg,
            rng,
            count=1,
            kinds=[
                "equivocating_dealer",
                "lying_reconstructor",
                "lying_confirmer",
                "mutator",
                "silent",
            ],
        )
        result, _ = run_mwsvss(
            cfg, dealer=1, moderator=2, secret=77, adversary=adversary
        )
        honest = [p for p in cfg.pids if p not in adversary.corrupt_pids]
        non_bottom = {
            result.outputs[p]
            for p in honest
            if p in result.outputs and result.outputs[p] is not BOTTOM
        }
        if len(non_bottom) > 1:
            assert result.trace.shun_pairs(), (
                f"binding broke with no shun: {result.outputs}"
            )
