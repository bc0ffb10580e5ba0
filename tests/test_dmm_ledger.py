"""Differential test: the ledger DMM against the paper's DMM as dictionaries.

Random sequences of every DMM entry point — expectations with conflicting
values, batches that arrive before their expectation, expectations after a
session closed, double closes — drive ``repro.core.dmm.DMM`` and the scan-
everything model of ``tests/reference/dmm_model.py`` over one shared clock;
after every operation both must answer every question alike.

Values come the way the protocol hands them over: one table per tag, drawn
up front — the share columns the dealer sent, ``[sender][monitor - 1]``, and
the monitor's ``mon`` body ``f_1(1..t+1)`` over GF(3).  The product gets the
table (its ledgers are masks over it), the model the value each entry
stands for: the column's entry, and the body's point at the sender.  A
batch reaches the product as ``VSSManager.parse_rv`` hands it over (monitor
mask, ascending entries) and the model as the dict.  The test keeps each
(tag, sender)'s first batch until the tag closes, as the MW-SVSS instance
keeps ``rv_batches`` until its release, and hands it to both with every
later expectation of that sender.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from reference.dmm_model import Player

from repro.core.dmm import DMM
from repro.core.mwsvss import point
from repro.core.sessions import SessionClock, mw_session, svss_session
from repro.field.gf import Field

ME = 1
PLAYERS = (1, 2, 3, 4)
T = 1
FIELD = Field(3)  # values 0..2: drawn batch values meet expectations often
TAGS = tuple(
    mw_session(svss_session((("cc", 0), slot), 2), 2, 3, "dm") for slot in (1, 2, 3, 4)
)

players = st.sampled_from(PLAYERS)
tags = st.sampled_from(TAGS)
values = st.integers(0, 2)
OPS = st.one_of(
    st.tuples(st.just("begin"), tags),
    st.tuples(st.just("expect_ack"), players, tags, players),
    st.tuples(st.just("expect_deal"), players, tags),
    st.tuples(
        st.just("check_reconstruct_batch"),
        players,
        tags,
        st.dictionaries(players, values, max_size=4),
    ),
    st.tuples(st.just("drop_deal_expectations"), tags),
    st.tuples(st.just("reconstructed"), tags),
    st.tuples(st.just("forget_session"), tags),
)

POINTS = len(PLAYERS) + 1  # pids 0..4 index the columns


def row(size: int):
    return st.lists(values, min_size=size, max_size=size).map(tuple)


#: per tag: (the dealer's share columns, the monitor's ``mon`` body)
TABLES = st.fixed_dictionaries(
    {
        tag: st.tuples(st.lists(row(len(PLAYERS)), min_size=POINTS, max_size=POINTS), row(T + 1))
        for tag in TAGS
    }
)


def verdicts(dmm) -> dict:
    return {(j, tag): dmm.filter_verdict(j, tag) for j in PLAYERS for tag in TAGS}


def parsed(batch: dict | None) -> tuple | None:
    if batch is None:
        return None
    return sum(1 << m for m in batch), tuple(sorted(batch.items()))


def apply(op: tuple, clock: SessionClock, tables: dict, held: dict, dmm, model=None) -> None:
    """Run ``op`` on the product (and the model); ``held`` is the test's
    tag -> {sender: first batch}, ``None`` once the tag closed."""
    name, *args = op
    if name == "begin":
        clock.note_begin(*args)
        return
    if name == "reconstructed":
        clock.note_complete(*args)
        name = "on_session_reconstructed"
    if name in ("on_session_reconstructed", "forget_session"):
        held[args[0]] = None  # the instance is released with its batches
    entry = args
    if name == "expect_ack":
        sender, tag, monitor = args
        cols, batch = tables[tag][0], (held.get(tag) or {}).get(sender)
        args = (*args, cols, parsed(batch))
        entry = (*entry, cols[sender][monitor - 1], batch)
    elif name == "expect_deal":
        sender, tag = args
        body, batch = tables[tag][1], (held.get(tag) or {}).get(sender)
        args = (*args, body, parsed(batch))
        entry = (*entry, point(FIELD, T, body, sender), batch)
    elif name == "check_reconstruct_batch":
        sender, tag, batch = args
        args = (sender, tag, parsed(batch))
        if held.setdefault(tag, {}) is not None:
            held[tag].setdefault(sender, batch)  # the first delivery stays
    getattr(dmm, name)(*args)
    if model is not None:
        getattr(model, name)(*entry)


def assert_ledgers_are_minimal(dmm: DMM) -> None:
    owed: dict[int, int] = {}
    for tag, ledger in dmm._ledgers.items():
        acks = ledger.ack or [0] * POINTS
        assert ledger.deal or any(acks), "an empty ledger stayed"
        # Masks over the session's rows, never a container per expectation.
        assert type(ledger.deal) is int and all(type(m) is int for m in acks)
        # A row is held only while some mask reads it.
        assert (ledger.deal_row is not None) == bool(ledger.deal)
        assert (ledger.ack_rows is not None) == any(acks)
        for sender in range(POINTS):
            count = (ledger.deal >> sender & 1) + acks[sender].bit_count()
            if count:
                owed[sender] = owed.get(sender, 0) + count
    assert owed == dmm._owed
    assert not dmm.D & set(owed)
    for sender, armed in dmm._armed.items():
        assert armed and armed <= dmm.pending_sessions(sender) & dmm._closed_sessions


@settings(max_examples=600, deadline=None)
@given(TABLES, st.lists(OPS, max_size=40))
def test_ledger_dmm_answers_like_the_dictionary_dmm(tables, ops):
    clock = SessionClock()
    shuns = []
    dmm = DMM(ME, clock, FIELD, on_shun=lambda culprit, tag: shuns.append((culprit, tag)))
    model, held = Player(ME, clock), {}
    before = verdicts(dmm)
    for op in ops:
        version = dmm.version
        apply(op, clock, tables, held, dmm, model)
        after = verdicts(dmm)
        assert after == verdicts(model), op
        assert dmm.D == model.D
        assert shuns == model.shuns
        for j in PLAYERS:
            assert dmm.pending_sessions(j) == model.pending_sessions(j), (op, j)
            assert dmm.has_expectations(j) == bool(model.pending_sessions(j))
        assert dmm.shunned_or_suspected() == model.shunned_or_suspected(PLAYERS)
        # A cached group verdict is only as good as the version it was
        # taken at: no verdict may move without a tick (a session's begin
        # stamp is the caller's event, not the DMM's) ...
        if after != before and op[0] != "begin":
            assert dmm.version > version, op
            moved = {j for (j, _), v in after.items() if before[j, _] != v}
            assert moved <= dmm.dirty
        before = after
        assert_ledgers_are_minimal(dmm)


@settings(max_examples=200, deadline=None)
@given(TABLES, st.lists(OPS, max_size=30))
def test_closing_every_session_leaves_only_debts(tables, ops):
    clock = SessionClock()
    dmm, held = DMM(ME, clock, FIELD), {}
    for op in ops:
        apply(op, clock, tables, held, dmm)
    for tag in TAGS:
        dmm.forget_session(tag)
    assert_ledgers_are_minimal(dmm)
    for tag, ledger in dmm._ledgers.items():
        assert tag in dmm._closed_sessions and ledger.debtors()
    assert set(dmm._owed) == {j for j in PLAYERS if dmm.pending_sessions(j)}
