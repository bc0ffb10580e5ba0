"""Tests for session ids and the ``→_i`` partial order."""

from __future__ import annotations

from reference.tick_clock import TickClock

from repro.core.sessions import (
    SessionClock,
    is_mw,
    is_svss,
    mw_session,
    svss_dealer,
    svss_session,
)


class TestSessionIds:
    def test_mw_structure(self):
        sid = mw_session(("solo", 0), 2, 3, "dm")
        assert is_mw(sid)
        assert not is_svss(sid)
        assert (sid[2], sid[3]) == (2, 3)  # dealer, moderator: what MW-SVSS reads

    def test_svss_structure(self):
        sid = svss_session(("tag", 1), 5)
        assert is_svss(sid)
        assert not is_mw(sid)
        assert svss_dealer(sid) == 5

    def test_ids_are_hashable_and_distinct(self):
        sids = {
            mw_session(("p", 0), 1, 2, "dm"),
            mw_session(("p", 0), 1, 2, "md"),
            mw_session(("p", 0), 2, 1, "dm"),
            svss_session(("p", 0), 1),
        }
        assert len(sids) == 4

    def test_non_tuples_rejected(self):
        assert not is_mw("x")
        assert not is_svss(42)


class Clocks:
    """``SessionClock`` beside the fresh-tick clock it replaced
    (``tests/reference/tick_clock.py``): a begin stamp is the count at the
    begin, kept here as an instance keeps it, and ``→_i`` is read the way
    ``DMM.filter_verdict`` reads it; every answer must be the old clock's."""

    def __init__(self):
        self.clock, self.ticks, self.begun = SessionClock(), TickClock(), {}

    def note_begin(self, sid):
        self.begun.setdefault(sid, self.clock.count)
        self.ticks.note_begin(sid)

    def note_complete(self, sid):
        self.clock.note_complete(sid)
        self.ticks.note_complete(sid)

    def precedes(self, first, second):
        done, begun = self.clock.completed.get(first), self.begun.get(second)
        answer = done is not None and begun is not None and done <= begun
        assert answer == self.ticks.precedes(first, second)
        return answer


class TestSessionClock:
    def test_precedes_requires_complete_before_begin(self):
        clock = Clocks()
        a, b = ("a",), ("b",)
        clock.note_begin(a)
        clock.note_complete(a)
        clock.note_begin(b)
        assert clock.precedes(a, b)
        assert not clock.precedes(b, a)

    def test_concurrent_sessions_unordered(self):
        clock = Clocks()
        a, b = ("a",), ("b",)
        clock.note_begin(a)
        clock.note_begin(b)
        clock.note_complete(a)
        clock.note_complete(b)
        # both began before either completed
        assert not clock.precedes(a, b)
        assert not clock.precedes(b, a)

    def test_incomplete_session_precedes_nothing(self):
        clock = Clocks()
        a, b = ("a",), ("b",)
        clock.note_begin(a)
        clock.note_begin(b)
        assert not clock.precedes(a, b)

    def test_unknown_sessions(self):
        clock = Clocks()
        assert not clock.precedes(("x",), ("y",))

    def test_stamps_are_first_event_only(self):
        clock = Clocks()
        a, b = ("a",), ("b",)
        clock.note_begin(a)
        clock.note_complete(a)
        clock.note_begin(b)
        clock.note_begin(a)  # replay must not move the original stamp
        assert clock.precedes(a, b)
        before = clock.clock.completed[a]
        clock.note_complete(a)
        assert clock.clock.completed[a] == before

    def test_sequential_chain_is_totally_ordered(self):
        clock = Clocks()
        sids = [(i,) for i in range(5)]
        for sid in sids:
            clock.note_begin(sid)
            clock.note_complete(sid)
        for i, a in enumerate(sids):
            for j, b in enumerate(sids):
                assert clock.precedes(a, b) == (i < j)

    def test_all_begun_before_any_completed_is_unordered(self):
        clock = Clocks()
        sids = [(i,) for i in range(5)]
        for sid in sids:
            clock.note_begin(sid)
        for sid in sids:
            clock.note_complete(sid)
        for a in sids:
            for b in sids:
                assert not clock.precedes(a, b)

    def test_only_a_completion_moves_the_count(self):
        """A share burst before any completion stamps every session 0."""
        clock = Clocks()
        for i in range(5):
            clock.note_begin((i,))
        assert set(clock.begun.values()) == {0} and clock.clock.count == 0
        clock.note_complete((0,))
        assert clock.clock.count == 1 and clock.clock.completed == {(0,): 1}
