"""Reproduction of the paper's Example 1 (§3.3).

n = 4, t = 1; process 2 is a *faulty dealer*, process 1 moderates, process 4
is delayed by the scheduler so that ``L_1 = L_2 = L_3 = M = {1, 2, 3}``.
During reconstruct, dealer 2 broadcasts values crafted to lie on a
*different* degree-1 polynomial that still matches process 3's own shares.
Process 3 then hears {2, 3} first and reconstructs the fake secret, while
process 1 hears {1, 3} first and reconstructs the real one: **two nonfaulty
processes output different non-⊥ values**.  MW-SVSS's weak binding is
genuinely violated — and exactly as the paper promises, the conflicting
broadcast lands dealer 2 in a nonfaulty process' ``D`` set.

The scenario itself lives in :mod:`repro.scenarios` (shared with benchmark
E11 and the examples).
"""

from __future__ import annotations

import pytest

from repro.core.dmm import DISCARD
from repro.core.mwsvss import BOTTOM
from repro.scenarios import (
    DEALER,
    FAKE_SECRET,
    MODERATOR,
    TRUE_SECRET,
    run_example1,
)


@pytest.fixture(scope="module")
def outcome():
    return run_example1(seed=0)


class TestExample1:
    def test_share_completed_without_process_4(self, outcome):
        assert {1, 2, 3} <= outcome.share_completed

    def test_m_set_is_123(self, outcome):
        assert outcome.m_hat[3] == frozenset({1, 2, 3})

    def test_two_nonfaulty_processes_disagree(self, outcome):
        """The heart of Example 1: weak binding breaks for real."""
        assert outcome.outputs[3] == FAKE_SECRET
        assert outcome.outputs[MODERATOR] == TRUE_SECRET
        assert outcome.disagreement

    def test_disagreement_is_non_bottom(self, outcome):
        assert outcome.outputs[3] is not BOTTOM
        assert outcome.outputs[MODERATOR] is not BOTTOM

    def test_dealer_is_shunned(self, outcome):
        """...and as the paper promises, the crafted lie convicts dealer 2
        at some nonfaulty process."""
        assert outcome.dealer_shunned

    def test_detection_in_d_set(self, outcome):
        in_d = [
            pid
            for pid in (1, 3, 4)
            if DEALER in outcome.stack.vss[pid].dmm.D
        ]
        assert in_d, "dealer must land in some honest D set"

    def test_future_sessions_discard_dealer(self, outcome):
        observer = next(
            pid for pid in (1, 3, 4) if DEALER in outcome.stack.vss[pid].dmm.D
        )
        vss = outcome.stack.vss[observer]
        # a session beginning now is stamped with the session clock's count
        verdict = vss.dmm.filter_verdict(DEALER, vss.clock.count)
        assert verdict == DISCARD

    def test_shun_pairs_name_the_dealer_only(self, outcome):
        for observer, culprit in outcome.stack.trace.shun_pairs():
            assert culprit == DEALER
