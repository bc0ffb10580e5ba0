"""``ABAProcess`` validates votes incrementally; the seed's from-scratch
fixpoint (``tests/reference/aba_fixpoint.py``) is what it must equal.

``conftest.aba_fixpoint_armed`` holds every agreement run of the suite to
the reference after each ``_ingest_vote``.  Here: the armed reference fires
on a planted bug (so the whole-suite cross-check is known to bite), one
round's votes in arbitrary arrival orders land on the fixpoint, and a
byzantine vote stream stores what the seed's shape rule lets through
whether it arrives packed in vote vectors or plain.
"""

from __future__ import annotations

from itertools import groupby
from random import Random
from types import SimpleNamespace

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


# -- packed and plain votes take one validation pass ------------------------------

_ROUNDS = st.sampled_from([1, 1, 1, 2, 2, 3, True, False, "1", 0, -1, 10**12])
_PHASES = st.sampled_from([1, 1, 2, 2, 3, 3, 0, 4, True])
_VOTES = st.sampled_from(
    [0, 1, 0, 1, (0, True), (1, True), (None, False)]  # honest shapes
    + [2, -1, None, "0", (0, False), (None, True), (2, True), (0, 1), (0,), "x"]
)


@st.composite
def byzantine_stream(draw):
    """``(n, input, start_at, [(origin, r, phase, vote), ...])``: three
    rounds of mostly-agreeing honest votes mixed with byzantine rounds,
    phases and votes (repeated senders included), in an arbitrary order
    where nearby votes of one origin sit together (they ride one vector);
    the process starts after ``start_at`` deliveries."""
    n = draw(st.sampled_from([4, 7]))
    votes = []
    for r in (1, 2, 3):
        w = draw(st.integers(0, 1))
        bits = st.sampled_from([w] * 5 + [1 - w])
        flags = st.sampled_from([(w, True)] * 4 + [(None, False)])
        for origin in range(1, n + 1):
            votes += [(origin, r, 1, draw(bits)), (origin, r, 2, draw(bits))]
            votes.append((origin, r, 3, draw(flags)))
    votes += draw(st.lists(st.tuples(st.integers(1, n), _ROUNDS, _PHASES, _VOTES), max_size=30))
    votes = draw(st.permutations(votes))
    window = draw(st.integers(1, 8))
    windows = (votes[i : i + window] for i in range(0, len(votes), window))
    votes = [v for chunk in windows for v in sorted(chunk, key=lambda v: v[0])]
    return n, draw(st.integers(0, 1)), draw(st.integers(0, len(votes))), votes


def seed_rule(r, phase, vote) -> bool:
    """The shape check the seed applied to every delivered vote."""
    if not isinstance(r, int) or r < 1 or phase not in (1, 2, 3):
        return False
    if phase in (1, 2):
        return vote in (0, 1)
    return (
        isinstance(vote, tuple)
        and len(vote) == 2
        and isinstance(vote[1], bool)
        and (vote[0] in (0, 1) if vote[1] else vote[0] is None)
    )


def round_view(state) -> tuple:
    """Every field of a round, acceptance order included."""
    return (
        {p: list(d.items()) for p, d in state.received.items()},
        {p: list(d.items()) for p, d in state.accepted.items()},
        state.pending2,
        state.pending3,
        state.snapshot,
        state.sent,
        state.resolved,
        state.counts1,
        state.counts2,
    )


def recording_twin(n: int) -> tuple[ABAProcess, list]:
    """``make_aba(n)`` whose broadcasts are recorded instead of sent."""
    aba = make_aba(n)
    sent: list = []
    aba._broadcast = SimpleNamespace(broadcast=lambda bid, value: sent.append(value))
    return aba, sent


@settings(max_examples=200, deadline=None)
@given(case=byzantine_stream())
def test_packed_and_plain_votes_take_one_validation_pass(case):
    """One vote stream reaches one twin as vote-vector entries (a run of
    one origin's votes per vector) and the other as plain deliveries: the
    twins end alike, and what they stored is what the seed's shape rule
    lets through, first vote per (round, phase, sender) wins."""
    n, bit, start_at, votes = case
    packed, packed_sent = recording_twin(n)
    plain, plain_sent = recording_twin(n)
    iid = plain.instance_id
    mux = packed._vote_mux
    expected: dict = {}

    def deliver(chunk):
        for origin, group in groupby(chunk, key=lambda v: v[0]):
            group = list(group)
            mux._on_rb(origin, ("abav", 0, tuple((iid, r, p, v) for _, r, p, v in group)))
            for _, r, p, v in group:
                if plain.closed:
                    return  # a halted instance's slot is gone: the vote dies
                plain._on_rb(origin, ("aba", iid, r, p, v))
                if seed_rule(r, p, v):
                    by_phase = expected.setdefault(r, {1: {}, 2: {}, 3: {}})
                    by_phase[p].setdefault(origin, v)

    deliver(votes[:start_at])
    packed.start(bit)
    plain.start(bit)
    deliver(votes[start_at:])

    assert packed_sent == plain_sent
    assert [(r, round_view(s)) for r, s in packed.rounds.items()] == [
        (r, round_view(s)) for r, s in plain.rounds.items()
    ]
    fields = (
        "round", "waiting_phase", "est", "awaiting_coin", "decided", "decide_round", "halted"
    )
    assert [getattr(packed, f) for f in fields] == [getattr(plain, f) for f in fields]
    stored = {r: s.received for r, s in plain.rounds.items() if any(s.received.values())}
    assert stored == expected
