"""Full-stack Byzantine agreement: the paper's actual protocol end-to-end.

These runs drive the complete pipeline — Bracha-skeleton ABA over the SVSS
shunning common coin over MW-SVSS over DMM over RB over the asynchronous
simulator — at n = 4 and n = 7.  Each run moves 10^5..10^6 simulated
messages, so the module is small and marked slow.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.behaviors import (
    ABALiarBehavior,
    EquivocatingDealerBehavior,
    SilentBehavior,
)
from repro.adversary.controller import Adversary
from repro.config import SystemConfig
from repro.core.api import run_byzantine_agreement

pytestmark = pytest.mark.slow


class TestFullStack:
    def test_split_inputs_n4(self):
        cfg = SystemConfig(n=4, seed=9)
        result = run_byzantine_agreement([0, 1, 1, 0], cfg, coin="svss")
        assert result.terminated and result.agreed
        assert result.decision in (0, 1)

    def test_unanimous_inputs_n4(self):
        cfg = SystemConfig(n=4, seed=10)
        result = run_byzantine_agreement([1, 1, 1, 1], cfg, coin="svss")
        assert result.agreed and result.decision == 1
        assert result.max_rounds <= 2

    def test_with_silent_process_n4(self):
        cfg = SystemConfig(n=4, seed=11)
        adversary = Adversary({4: SilentBehavior()})
        result = run_byzantine_agreement(
            [0, 1, 1, 0], cfg, coin="svss", adversary=adversary
        )
        assert result.terminated and result.agreed

    def test_with_aba_liar_n4(self):
        cfg = SystemConfig(n=4, seed=12)
        adversary = Adversary({2: ABALiarBehavior(random.Random(12))})
        result = run_byzantine_agreement(
            [1, 0, 0, 1], cfg, coin="svss", adversary=adversary
        )
        assert result.terminated and result.agreed

    def test_with_equivocating_dealer_in_coin_n4(self):
        """The dealer corrupts its VSS dealings inside the coin; the run
        must still terminate (possibly consuming shun pairs)."""
        cfg = SystemConfig(n=4, seed=13)
        adversary = Adversary({3: EquivocatingDealerBehavior(random.Random(13))})
        result = run_byzantine_agreement(
            [0, 1, 1, 0], cfg, coin="svss", adversary=adversary
        )
        assert result.terminated and result.agreed
        # shunning budget never exceeded
        assert len(result.shun_pairs) <= cfg.t * (cfg.n - cfg.t)

    def test_split_inputs_n7(self):
        """On the default transport (the n=7 coin without envelopes is
        ``test_coalesce.py::test_coin_flip_identical_and_reduced``)."""
        cfg = SystemConfig(n=7, seed=14)
        result = run_byzantine_agreement(
            [0, 1, 0, 1, 0, 1, 0], cfg, coin="svss"
        )
        assert result.terminated and result.agreed
