"""An ``rv`` batch stays its wire tuple, and reads like the dict it replaced.

``VSSManager.parse_rv`` validates a body once and hands over its monitor
mask and its entries: the body itself when its monitors are ``int`` and
strictly ascending (every honest batch), else a canonical tuple built once;
``mwsvss.rv_value`` reads a monitor's entry at the popcount of the mask below
it.  ``tests/reference/rv_parse.py`` is the dict parse it replaced, where the
last entry for a monitor wins.  Honest, unsorted, repeated-monitor,
malformed and ``bool``-monitor bodies go through both, which must agree on
accept or reject, on the value of every monitor, on the DMM's outcome for
the sender (cleared, convicted or still pending) and on the ``f̄_l`` a
process interpolates.  The planted bug (the first entry for a repeated
monitor wins) must make that property fail.
"""

from __future__ import annotations

from functools import cache
from itertools import count

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from reference.dmm_model import Player
from reference.rv_parse import parse_rv
from reference.rv_points import RvPoints

from repro import SystemConfig
from repro.core.api import build_stack
from repro.core.dmm import DMM
from repro.core.manager import VSSManager
from repro.core.mwsvss import BOTTOM, point, rv_value
from repro.core.sessions import SessionClock, mw_session

N, PRIME = 4, 13
T = 1
ME, SENDER, OTHER = 1, 2, 3
DEALER, MODERATOR = 4, 3
PIDS = tuple(range(1, N + 1))
_sessions = count()


@cache
def manager():
    return build_stack(SystemConfig(n=N, prime=PRIME)).vss[ME]


monitors = st.integers(1, N)
values = st.integers(0, PRIME - 1)
entries = st.lists(st.tuples(monitors, values), max_size=6)
distinct = st.lists(st.tuples(monitors, values), unique_by=lambda e: e[0])
honest = distinct.map(lambda items: tuple(sorted(items)))
unsorted = distinct.flatmap(st.permutations).map(tuple)
repeated = st.lists(st.tuples(monitors, values), min_size=2, max_size=8).map(tuple)
bools = st.lists(st.tuples(st.sampled_from((True, 1, 2, 3, 4)), values), max_size=6).map(
    tuple
)
bad_items = st.one_of(
    st.tuples(st.sampled_from((0, N + 1, -1, "1", 1.0, None)), values),
    st.tuples(monitors, st.sampled_from((-1, PRIME, 1.5, "3", None))),
    st.tuples(monitors, values, values),
    st.tuples(monitors),
    st.tuples(monitors, values).map(list),
    st.just(7),
)


@st.composite
def malformed(draw):
    """A body with one bad item somewhere, or a body that is no tuple."""
    items = draw(entries)
    if draw(st.integers(0, 4)) == 0:
        return items  # a list
    items.insert(draw(st.integers(0, len(items))), draw(bad_items))
    return tuple(items)


BODIES = st.one_of(honest, unsorted, repeated, bools, malformed())


@st.composite
def cases(draw):
    """A body, the values the DMM expects from its sender (an ACK per
    monitor drawn, a DEAL through process 1's ``mon`` body), and an honest
    second batch so that every monitor can reach t + 1 points."""
    body = draw(BODIES)
    owed = draw(st.dictionaries(monitors, values))
    deal = draw(st.none() | st.tuples(values, values))
    other = tuple((l, draw(values)) for l in PIDS)
    return body, owed, deal, other


def outcome(dmm, sender: int) -> str:
    if sender in dmm.D:
        return "convict"
    return "pending" if dmm.has_expectations(sender) else "clear"


def model_outcome(model, sender: int) -> str:
    if sender in model.D:
        return "convict"
    return "pending" if model.pending_sessions(sender) else "clear"


def check(body, owed, deal, other) -> None:
    mgr = manager()
    parsed, reference = mgr.parse_rv(body), parse_rv(body, N, PRIME)
    assert (parsed is None) == (reference is None), body
    if parsed is None:
        return
    for l in PIDS:
        assert rv_value(parsed, l) == reference.get(l), (body, l)
    ascending = all(type(m) is int for m, _ in body) and all(
        a[0] < b[0] for a, b in zip(body, body[1:])
    )
    if ascending:
        assert parsed[1] is body  # held as it came, not copied

    # The DMM's verdict on the sender: the product on the parsed batch, the
    # dictionary model on the dict.
    session = mw_session(("rv-parse", next(_sessions)), DEALER, MODERATOR, "dm")
    clock = SessionClock()
    dmm, model = DMM(ME, clock, mgr.field), Player(ME, clock)
    cols = [None] * (N + 1)
    cols[SENDER] = [owed.get(m, 0) for m in PIDS]
    for monitor, value in owed.items():
        dmm.expect_ack(SENDER, session, monitor, cols, None)
        model.expect_ack(SENDER, session, monitor, value, None)
    if deal is not None:
        dmm.expect_deal(SENDER, session, deal, None)
        model.expect_deal(SENDER, session, point(mgr.field, T, deal, SENDER), None)
    dmm.check_reconstruct_batch(SENDER, session, parsed)
    model.check_reconstruct_batch(SENDER, session, reference)
    assert outcome(dmm, SENDER) == model_outcome(model, SENDER), body

    # The f̄_l process 1 interpolates, the sender's points first.
    inst = mgr._ensure_mw(session)
    points = RvPoints(PRIME, T, BOTTOM)
    inst.handle(MODERATOR, "M", PIDS)
    points.on_m_set(PIDS)
    for l in PIDS:
        inst.handle(l, "L", PIDS)
        points.on_l_set(l, PIDS)
    inst.handle(SENDER, "rv", body, parsed)
    points.on_rv(SENDER, reference.items())
    inst.handle(OTHER, "rv", other, mgr.parse_rv(other))
    points.on_rv(OTHER, other)
    assert inst.f_bar[1:] == [points.f_bar.get(l) for l in PIDS], body
    inst.release()


@settings(max_examples=600, deadline=None)
@given(cases())
def test_parse_rv_reads_like_the_dict_parse(case):
    check(*case)


def test_the_bodies_reach_every_shape():
    """The strategy is not vacuous: it accepts, rejects, keeps and copies."""
    shapes = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(BODIES)
    def probe(body):
        parsed = manager().parse_rv(body)
        if parsed is None:
            shapes.add("reject")
        else:
            shapes.add("kept" if parsed[1] is body else "canonical")
            if len({m for m, _ in body}) < len(body):
                shapes.add("repeat")

    probe()
    assert shapes == {"reject", "kept", "canonical", "repeat"}


PARSE_RV = VSSManager.parse_rv


def first_wins(self: VSSManager, body: object):
    """The planted bug: a repeated monitor keeps its first value."""
    parsed = PARSE_RV(self, body)
    if parsed is None:
        return None
    first: dict[int, int] = {}
    for monitor, value in body:
        first.setdefault(int(monitor), value)
    return parsed[0], tuple(sorted(first.items()))


def test_the_property_fails_when_the_first_entry_wins(monkeypatch):
    monkeypatch.setattr(VSSManager, "parse_rv", first_wins)

    # No shrinking: the first failing example is the finding.
    @settings(max_examples=400, deadline=None, database=None, phases=[Phase.generate])
    @given(cases())
    def planted(case):
        check(*case)

    with pytest.raises(AssertionError):
        planted()
