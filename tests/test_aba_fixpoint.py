"""``ABAProcess`` validates votes incrementally; the seed's from-scratch
fixpoint (``tests/reference/aba_fixpoint.py``) is what it must equal.

``conftest.aba_fixpoint_armed`` holds every agreement run of the suite to
the reference after each ``_ingest_vote``.  Here: the armed reference fires
on a planted bug (so the whole-suite cross-check is known to bite), and one
round's votes in arbitrary arrival orders land on the fixpoint.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.aba_fixpoint import fixpoint_accepted

from repro import SystemConfig, run_byzantine_agreement
from repro.core.agreement import ABAProcess
from repro.core.api import build_stack
from repro.core.coin import LocalCoin
from repro.sim.scheduler import TargetedDelayScheduler, UniformDelayScheduler


def make_aba(n: int) -> ABAProcess:
    """Process 1 of an n-process system, never started: votes fed to
    ``_on_rb`` are validated and parked, nothing is sent."""
    stack = build_stack(SystemConfig(n=n, seed=0), with_vss=False)
    coin = LocalCoin(stack.config.derive_rng("local-coin", 1))
    return ABAProcess(stack.runtime.host(1), stack.broadcasts[1], coin)


def vote(aba: ABAProcess, origin: int, phase: int, value: object, r: int = 1) -> None:
    aba._on_rb(origin, ("aba", aba.instance_id, r, phase, value))


# -- the armed reference bites ---------------------------------------------------


@pytest.fixture
def parked_votes_dropped(monkeypatch):
    """The planted bug: a phase-1 tally crossing its threshold forgets the
    phase-2 votes parked on it instead of accepting them."""

    def drop(self, state, value):
        state.pending2[value].clear()

    monkeypatch.setattr(ABAProcess, "_flush_phase2", drop)


def test_the_armed_reference_fires_on_a_dropped_parked_vote(parked_votes_dropped):
    aba = make_aba(4)  # n - t = 3: a phase-2 zero needs two phase-1 zeros
    vote(aba, 2, 2, 0)  # parked
    vote(aba, 1, 1, 0)  # one backing vote: both sides still accept nothing
    with pytest.raises(AssertionError, match="diverged from the fixpoint"):
        vote(aba, 3, 1, 0)  # the fixpoint accepts the parked vote now


def test_the_armed_reference_fires_inside_a_full_run(parked_votes_dropped):
    """Through the public entry point, with no accounting argument: at a
    process the scheduler starves, phase-2 votes overtake their phase-1
    backing and park."""
    scheduler = TargetedDelayScheduler(UniformDelayScheduler(Random(0)), victims={4})
    with pytest.raises(AssertionError, match="diverged from the fixpoint"):
        run_byzantine_agreement(
            [0, 1, 1, 0], SystemConfig(n=4, seed=0), coin=("ideal", 1.0), scheduler=scheduler
        )


# -- arrival order does not matter -----------------------------------------------

_PHASE3 = st.sampled_from([(0, True), (1, True), (None, False)])


@st.composite
def one_round(draw):
    """``(n, [(origin, phase, vote), ...])``: each process casts at most one
    vote per phase, delivered in an arbitrary global order."""
    n = draw(st.sampled_from([4, 7]))
    votes = []
    for origin in range(1, n + 1):
        for phase, values in ((1, st.integers(0, 1)), (2, st.integers(0, 1)), (3, _PHASE3)):
            if draw(st.booleans()):
                votes.append((origin, phase, draw(values)))
    return n, draw(st.permutations(votes))


@settings(max_examples=200, deadline=None)
@given(case=one_round())
def test_any_arrival_order_lands_on_the_fixpoint(case):
    n, votes = case
    aba = make_aba(n)
    for origin, phase, value in votes:
        vote(aba, origin, phase, value)
        state = aba.rounds[1]
        assert state.accepted == fixpoint_accepted(n, aba.t, state.received)
    if votes:
        # Everything received is accepted or still parked, never lost.
        parked = len(state.pending2[0]) + len(state.pending2[1]) + len(state.pending3)
        assert sum(map(len, state.accepted.values())) + parked == len(votes)
