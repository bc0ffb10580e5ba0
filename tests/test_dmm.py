"""Unit tests for the DMM protocol (paper §3.3), driven directly."""

from __future__ import annotations

import pytest

from repro.core.dmm import DELAY, DISCARD, DMM, FORWARD
from repro.core.sessions import SessionClock
from repro.field.gf import Field

S1 = ("mw", ("solo", 1), 1, 2, "dm")
S2 = ("mw", ("solo", 2), 1, 2, "dm")


def dealer_columns(values: dict) -> list:
    """The share columns a dealer sent, from ``{monitor: {sender: value}}``:
    the DMM reads ``cols[sender][monitor - 1]`` and keeps a mask per sender,
    one bit per monitor."""
    cols = [{} for _ in range(8)]
    for monitor, senders in values.items():
        for sender, value in senders.items():
            cols[sender][monitor - 1] = value
    return cols


def rv(entries: dict) -> tuple:
    """A reconstruct batch as ``VSSManager.parse_rv`` hands it over: its
    monitor mask and its ascending ``(monitor, value)`` entries."""
    return sum(1 << monitor for monitor in entries), tuple(sorted(entries.items()))


#: f_2(3) = f_2(4) = 7 and f_4(3) = 9 in S1; f_2(3) = 1 in S2
ROWS = {S1: dealer_columns({2: {3: 7, 4: 7}, 4: {3: 9}}), S2: dealer_columns({2: {3: 1}})}
#: the monitor's ``mon`` bodies f̂(1..3) (t = 2): f̂(3) = 9 and f̂(4) = 2 in
#: S1, f̂(3) = 1 in S2 — the confirm values step 3 admits
CONFIRMS = {S1: (2, 9, 9), S2: (0, 0, 1)}


def make_dmm(pid=1):
    shuns = []
    clock = SessionClock()
    dmm = DMM(pid, clock, Field(2**31 - 1), on_shun=lambda culprit, session: shuns.append((culprit, session)))
    return dmm, clock, shuns


class TestExpectations:
    def test_matching_ack_broadcast_clears(self):
        dmm, clock, shuns = make_dmm()
        dmm.expect_ack(sender=3, session=S1, monitor=2, rows=ROWS[S1], batch=None)
        assert dmm.has_expectations(3)
        dmm.check_reconstruct_batch(3, S1, rv({2: 7}))
        assert not dmm.has_expectations(3)
        assert shuns == []

    def test_conflicting_ack_broadcast_convicts(self):
        dmm, clock, shuns = make_dmm()
        dmm.expect_ack(sender=3, session=S1, monitor=2, rows=ROWS[S1], batch=None)
        dmm.check_reconstruct_batch(3, S1, rv({2: 8}))
        assert 3 in dmm.D
        assert shuns == [(3, S1)]

    def test_matching_deal_broadcast_clears(self):
        dmm, clock, shuns = make_dmm(pid=5)
        dmm.expect_deal(sender=3, session=S1, row=CONFIRMS[S1], batch=None)
        dmm.check_reconstruct_batch(3, S1, rv({5: 9}))
        assert not dmm.has_expectations(3)

    def test_conflicting_deal_broadcast_convicts(self):
        dmm, clock, shuns = make_dmm(pid=5)
        dmm.expect_deal(sender=3, session=S1, row=CONFIRMS[S1], batch=None)
        dmm.check_reconstruct_batch(3, S1, rv({5: 1}))
        assert 3 in dmm.D
        assert shuns == [(3, S1)]

    def test_batch_missing_entry_keeps_expectation(self):
        dmm, clock, shuns = make_dmm()
        dmm.expect_ack(3, S1, monitor=2, rows=ROWS[S1], batch=None)
        dmm.check_reconstruct_batch(3, S1, rv({4: 1}))  # no entry for monitor 2
        assert dmm.has_expectations(3)
        assert shuns == []

    def test_batch_before_expectation_reconciles_match(self):
        """Asynchrony: the broadcast can arrive before the share step that
        records the expectation; the step hands over the batch its
        instance holds, and the DMM keeps none of its own."""
        dmm, clock, shuns = make_dmm()
        batch = rv({2: 7})
        dmm.check_reconstruct_batch(3, S1, batch)
        assert not dmm._ledgers
        dmm.expect_ack(3, S1, monitor=2, rows=ROWS[S1], batch=batch)
        assert not dmm.has_expectations(3)
        assert shuns == []

    def test_batch_before_expectation_reconciles_conflict(self):
        dmm, clock, shuns = make_dmm()
        batch = rv({2: 8})
        dmm.check_reconstruct_batch(3, S1, batch)
        dmm.expect_ack(3, S1, monitor=2, rows=ROWS[S1], batch=batch)
        assert 3 in dmm.D

    def test_drop_deal_expectations(self):
        dmm, clock, shuns = make_dmm(pid=5)
        dmm.expect_deal(3, S1, row=CONFIRMS[S1], batch=None)
        dmm.expect_deal(4, S1, row=CONFIRMS[S1], batch=None)
        dmm.drop_deal_expectations(S1)
        assert not dmm.has_expectations(3)
        assert not dmm.has_expectations(4)

    def test_expectations_from_detected_processes_ignored(self):
        dmm, clock, shuns = make_dmm()
        dmm.expect_ack(3, S1, monitor=2, rows=ROWS[S1], batch=None)
        dmm.check_reconstruct_batch(3, S1, rv({2: 8}))  # convicts 3
        dmm.expect_ack(3, S2, monitor=2, rows=ROWS[S2], batch=None)
        assert not dmm.has_expectations(3)


class TestFilter:
    def test_forward_by_default(self):
        dmm, clock, shuns = make_dmm()
        assert dmm.filter_verdict(3, S1) == FORWARD

    def test_discard_from_detected(self):
        dmm, clock, shuns = make_dmm()
        dmm.expect_ack(3, S1, monitor=2, rows=ROWS[S1], batch=None)
        dmm.check_reconstruct_batch(3, S1, rv({2: 0}))
        assert dmm.filter_verdict(3, S2) == DISCARD

    def test_never_filters_self(self):
        dmm, clock, shuns = make_dmm(pid=3)
        dmm.D.add(3)  # pathological; self traffic must still flow
        assert dmm.filter_verdict(3, S1) == FORWARD

    def test_delay_requires_session_order(self):
        dmm, clock, shuns = make_dmm()
        clock.note_begin(S1)
        dmm.expect_ack(3, S1, monitor=2, rows=ROWS[S1], batch=None)
        clock.note_complete(S1)
        dmm.on_session_reconstructed(S1)
        clock.note_begin(S2)
        assert dmm.filter_verdict(3, S2) == DELAY

    def test_no_delay_without_completion(self):
        """Expectations from a session whose reconstruct has not completed
        cannot delay anything (→_i does not hold)."""
        dmm, clock, shuns = make_dmm()
        clock.note_begin(S1)
        dmm.expect_ack(3, S1, monitor=2, rows=ROWS[S1], batch=None)
        clock.note_begin(S2)
        assert dmm.filter_verdict(3, S2) == FORWARD

    def test_no_delay_for_concurrent_sessions(self):
        dmm, clock, shuns = make_dmm()
        clock.note_begin(S1)
        clock.note_begin(S2)  # S2 began before S1 completed
        dmm.expect_ack(3, S1, monitor=2, rows=ROWS[S1], batch=None)
        clock.note_complete(S1)
        dmm.on_session_reconstructed(S1)
        assert dmm.filter_verdict(3, S2) == FORWARD

    def test_delay_lifts_after_clearing(self):
        dmm, clock, shuns = make_dmm()
        clock.note_begin(S1)
        dmm.expect_ack(3, S1, monitor=2, rows=ROWS[S1], batch=None)
        clock.note_complete(S1)
        dmm.on_session_reconstructed(S1)
        clock.note_begin(S2)
        assert dmm.filter_verdict(3, S2) == DELAY
        dmm.check_reconstruct_batch(3, S1, rv({2: 7}))
        assert dmm.filter_verdict(3, S2) == FORWARD

    def test_delay_only_for_owing_sender(self):
        dmm, clock, shuns = make_dmm()
        clock.note_begin(S1)
        dmm.expect_ack(3, S1, monitor=2, rows=ROWS[S1], batch=None)
        clock.note_complete(S1)
        dmm.on_session_reconstructed(S1)
        clock.note_begin(S2)
        assert dmm.filter_verdict(4, S2) == FORWARD

    def test_arming_after_late_expectation(self):
        """Expectation added after the session completed is armed at once."""
        dmm, clock, shuns = make_dmm()
        clock.note_begin(S1)
        clock.note_complete(S1)
        dmm.on_session_reconstructed(S1)
        dmm.expect_ack(3, S1, monitor=2, rows=ROWS[S1], batch=None)
        clock.note_begin(S2)
        assert dmm.filter_verdict(3, S2) == DELAY


class TestIntrospection:
    def test_pending_sessions(self):
        dmm, clock, shuns = make_dmm()
        dmm.expect_ack(3, S1, monitor=2, rows=ROWS[S1], batch=None)
        dmm.expect_deal(3, S2, row=CONFIRMS[S2], batch=None)
        assert dmm.pending_sessions(3) == frozenset({S1, S2})

    def test_shunned_or_suspected(self):
        dmm, clock, shuns = make_dmm()
        dmm.expect_ack(3, S1, monitor=2, rows=ROWS[S1], batch=None)
        dmm.expect_ack(4, S1, monitor=2, rows=ROWS[S1], batch=None)
        dmm.check_reconstruct_batch(4, S1, rv({2: 0}))
        assert dmm.shunned_or_suspected() == {3, 4}

    def test_multiple_monitors_partial_clear(self):
        dmm, clock, shuns = make_dmm()
        dmm.expect_ack(3, S1, monitor=2, rows=ROWS[S1], batch=None)
        dmm.expect_ack(3, S1, monitor=4, rows=ROWS[S1], batch=None)
        dmm.check_reconstruct_batch(3, S1, rv({2: 7}))
        assert dmm.has_expectations(3)
        dmm.check_reconstruct_batch(3, S1, rv({2: 7, 4: 9}))
        assert not dmm.has_expectations(3)

    def test_detection_is_permanent(self):
        dmm, clock, shuns = make_dmm()
        dmm.expect_ack(3, S1, monitor=2, rows=ROWS[S1], batch=None)
        dmm.check_reconstruct_batch(3, S1, rv({2: 0}))
        dmm.check_reconstruct_batch(3, S1, rv({2: 7}))  # too late
        assert 3 in dmm.D
        assert len(shuns) == 1
