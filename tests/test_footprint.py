"""Footprint regression: bytes of traced heap per MW-SVSS instance.

One coin = 2n⁴ MW-SVSS sessions × n process views, all alive at once in the
share phase, so what one instance and its DMM ledger hold *is* the coin's
memory (``docs/MEMORY.md`` has the table by module and line).  The state is
words and rows — pid sets as ``int`` bitmasks, pid → value maps as lists,
one DMM ledger per session; a ``set()`` or a ``dict`` per fact costs
200–700 bytes apiece and this bound is where it would show.  Each container
lives only as long as the protocol step that reads it, and what many
sessions hold alike is held once: the lifetime tests below pin when the
rows are shared, replaced and dropped.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

from repro.config import SystemConfig
from repro.core.api import build_stack, flip_common_coin, make_coins, run_mwsvss
from repro.core.dmm import _Ledger
from repro.core.mwsvss import MWSVSSInstance
from repro.core.sessions import mw_session
from repro.sim.scheduler import FifoScheduler

#: Measured 1 227 B per instance, bound 5 % above (1 267 B with five step
#: flags beside the fields that already recorded them; 1 431 B with each
#: session's begin stamp and slot split kept in tables keyed by session id
#: beside the instance; 1 533 B with a private ``L_hat`` list per
#: instance, SVSS child sids in sets and dicts, and ``pid`` / ``n`` / ``t`` /
#: ``field`` / ``dealer`` / ``moderator`` copied into every instance; 1 722 B
#: before the small-int field; 1 978 B with the dealer's (n+1)² value
#: matrix, the monitor's confirm list and each ``rv`` batch as a dict;
#: 2 169 B with the DMM's expectations as
#: value dicts and f̂_j / f̂ as value rows f(0..n), 2 265 B before that;
#: 2 749 B with ``K`` as per-monitor lists of
#: ``(sender, value)`` points and ``confirm_values`` / ``L_hat`` allocated
#: per instance; 3 948 B with ``acks`` / ``L`` / ``confirm_values`` /
#: ``L_hat`` as containers and six global DMM tables).
BYTES_PER_INSTANCE = 1288


def coin(seed: int):
    return flip_common_coin(SystemConfig(n=4, seed=seed), scheduler=FifoScheduler())


def test_traced_peak_of_a_coin_per_mw_instance(monkeypatch):
    coin(1)  # warm-up: imports, cached bases and memos are not the coin's
    # Finished sharings leave the tables, so instances are counted at creation.
    created = [0]
    init = MWSVSSInstance.__init__

    def counted(self, manager, sid):
        created[0] += 1
        init(self, manager, sid)

    monkeypatch.setattr(MWSVSSInstance, "__init__", counted)
    gc.collect()
    tracemalloc.start()
    try:
        result, stack = coin(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(result.outputs.values())) == 1
    instances = created[0]
    assert instances == 4 * 16 * 32
    per_instance = peak / instances
    assert per_instance <= BYTES_PER_INSTANCE, f"{per_instance:.0f} B per MW instance"


# -- container lifetimes -----------------------------------------------------------


def fresh_instance():
    """Process 1's view of a session it neither deals nor moderates."""
    mgr = build_stack(SystemConfig(n=4, seed=0)).vss[1]
    return mgr, mgr._ensure_mw(mw_session(("solo", 0), 2, 3, "dm"))


def test_a_fresh_instance_shares_the_managers_empty_rows():
    mgr, inst = fresh_instance()
    assert inst.heard == inst.confirmed == 0 and inst._early_confirms == ()
    assert inst.L_hat is mgr.empty_masks == (0,) * 5
    assert inst.K is inst.f_bar is inst.rv_batches is None
    assert inst.moderator_shares is None  # not the moderator


def test_the_first_write_copies_the_row():
    mgr, inst = fresh_instance()
    # A confirm value heard before f̂_j is a pair until ``mon``, then a bit.
    inst.handle(4, "cnf", 5)
    inst.handle(4, "cnf", 6)  # the first one wins
    assert inst._early_confirms == ((4, 5),) and inst.heard == 1 << 4
    inst.handle(2, "mon", (5, 5))  # f̂_j ≡ 5
    assert inst._early_confirms == () and inst.confirmed == 1 << 4
    inst.handle(4, "L", (1, 2, 3))
    assert inst.L_hat is not mgr.empty_masks
    assert inst.L_hat == (0, 0, 0, 0, 0b1110)
    # The shared row is immutable; every other instance still reads it.
    assert mgr.empty_masks == (0,) * 5


def test_a_write_replaces_the_row_and_never_mutates_it():
    mgr, inst = fresh_instance()
    inst.handle(4, "L", (1, 2, 3))
    before = inst.L_hat
    inst.handle(2, "L", (1, 3, 4))
    assert type(inst.L_hat) is tuple and inst.L_hat is not before
    assert before == (0, 0, 0, 0, 0b1110)  # the old row, as it was
    assert inst.L_hat == (0, 0, 0b11010, 0, 0b1110)
    inst.handle(2, "L", (1, 2, 3))  # a second L̂_2 is ignored: no write at all
    assert inst.L_hat == (0, 0, 0b11010, 0, 0b1110)


def test_siblings_fed_the_same_sets_hold_the_same_row_object():
    """Rows are interned by value: two sessions that received the same L̂
    sets, in either order, share one row; a third set gives another row."""
    mgr = build_stack(SystemConfig(n=4, seed=0)).vss[1]
    first, second, third = (
        mgr._ensure_mw(mw_session(("solo", c), 2, 3, "dm")) for c in range(3)
    )
    first.handle(4, "L", (1, 2, 3))
    first.handle(2, "L", (1, 3, 4))
    second.handle(2, "L", (1, 3, 4))
    second.handle(4, "L", (1, 2, 3))
    assert first.L_hat is second.L_hat
    third.handle(4, "L", (1, 2, 3))
    third.handle(2, "L", (2, 3, 4))
    assert third.L_hat != first.L_hat


def test_the_instance_reads_what_the_manager_and_the_sid_hold():
    """No slot repeats the manager (pid, n, t, field) or the sid (dealer,
    moderator), and SVSS's child bookkeeping is words over the children."""
    for name in ("pid", "n", "t", "field", "dealer", "moderator"):
        assert name not in MWSVSSInstance.__slots__
    assert len(MWSVSSInstance.__slots__) == 28
    result, stack = run_mwsvss(SystemConfig(n=4, seed=3), 1, 2, 7, reconstruct=False)
    inst = stack.vss[1].mw[result.session]
    assert (inst.manager.pid, inst.sid[2], inst.sid[3]) == (1, 1, 2)
    cfg = SystemConfig(n=4, seed=1)
    stack = build_stack(cfg, scheduler=FifoScheduler())
    sid = ("svss", ("footprint", 0), 1)
    stack.vss[1].svss_share(sid, 3)
    stack.runtime.run_to_quiescence()
    for mgr in stack.vss.values():
        svss = mgr.svss[sid]
        assert svss.share_completed
        assert type(svss.mw_completed) is int and type(svss.mw_reconstructed) is int
        assert svss.mw_outputs is None  # allocated at the first child output
        assert svss._share_needed & ~svss.mw_completed == 0
        mgr.svss_begin_reconstruct(sid)
    stack.runtime.run_to_quiescence()
    for mgr in stack.vss.values():
        assert mgr.svss == {}  # reconstructed, released, retired


def test_after_the_l_freeze_the_confirm_masks_are_dropped_and_a_late_cnf_is_free():
    result, stack = run_mwsvss(SystemConfig(n=4, seed=3), 1, 2, 7, reconstruct=False)
    for pid in stack.config.pids:
        mgr = stack.vss[pid]
        inst = mgr.mw[result.session]
        assert inst.L_frozen and inst.monitor_row is None
        assert inst.heard == inst.confirmed == 0
        assert inst._early_confirms == ()
        # Step 3 is over: a late confirm value stores and allocates nothing.
        late = next(p for p in stack.config.pids if not inst.L >> p & 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            inst.handle(late, "cnf", 5)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert inst.heard == 0
        assert after == before


def test_the_moderator_drops_its_shares_at_the_m_freeze():
    result, stack = run_mwsvss(SystemConfig(n=4, seed=3), 1, 2, 7, reconstruct=False)
    inst = stack.vss[2].mw[result.session]
    assert inst.moderator_row is None and inst.moderator_shares is None
    assert isinstance(inst.M, int) and inst.M.bit_count() >= 3
    assert stack.vss[2].pids_of(inst.M) == tuple(sorted(inst.M_hat))


def test_a_released_instance_holds_no_reconstruct_state():
    result, stack = run_mwsvss(SystemConfig(n=4, seed=3), 1, 2, 7, reconstruct=False)
    instances = {pid: stack.vss[pid].mw[result.session] for pid in stack.config.pids}
    for pid in stack.config.pids:
        stack.vss[pid].mw_begin_reconstruct(result.session)
    stack.runtime.run_to_quiescence()
    assert result.outputs == {pid: 7 for pid in stack.config.pids}
    for pid, inst in instances.items():
        assert inst.released
        assert inst.K is None and inst.f_bar is None and inst.rv_batches is None
        assert inst._early_confirms is None and inst.L_hat is None
        # ... and the finished solo sharing left the tables for the tombstone.
        assert result.session not in stack.vss[pid].mw
        assert stack.vss[pid].clock.finished(result.session)


# -- the DMM's ledgers ---------------------------------------------------------------


def test_ledgers_are_masks_over_the_rows_the_instances_hold(monkeypatch):
    """Every value is held once, after an n = 4 coin's share phase.  No
    instance holds a confirm list; an expectation is a bit: each DEAL row
    *is* its monitor's ``mon`` body (which the DMM holds past the ``L``
    freeze), each ACK row *is* its dealer's column list, whose column ``j``
    *is* process j's ``share_vector``; a batch is held by its instance's
    ``rv_batches`` alone, no ledger has a slot for one; and ``f̂_j`` / ``f̂``
    stay the dealer's t + 1 values — ``value_rows`` never runs for an
    MW-SVSS kind: its one caller is SVSS's ``rows`` handler."""
    from repro.core import mwsvss, svss

    dealt, bodies, decoded, outputs = {}, {}, [], []
    share, freeze = MWSVSSInstance.share, MWSVSSInstance._freeze_l

    def kept_rows(self, secret):
        share(self, secret)
        dealt[self.manager.pid, self.sid] = self._deal_rows

    def kept_body(self):
        bodies[self.manager.pid, self.sid] = self.monitor_row
        freeze(self)

    monkeypatch.setattr(MWSVSSInstance, "share", kept_rows)
    monkeypatch.setattr(MWSVSSInstance, "_freeze_l", kept_body)
    value_rows = mwsvss.value_rows

    def traced(*args):
        decoded.append(sys._getframe(1).f_code.co_name)
        return value_rows(*args)

    monkeypatch.setattr(mwsvss, "value_rows", traced)
    monkeypatch.setattr(svss, "value_rows", traced)  # imported there by name
    config = SystemConfig(n=4, seed=2)
    stack = build_stack(config, scheduler=FifoScheduler())
    coins = make_coins(stack, "svss")
    with stack.runtime.coalescing_step():
        for pid in config.pids:
            coins[pid].join(("cc", "solo", 0))
            coins[pid].get(("cc", "solo", 0), lambda bit: None)
            coins[pid].release(("cc", "solo", 0))
    for mgr in stack.vss.values():
        notify = mgr.notify_mw_output
        mgr.notify_mw_output = lambda sid, value, notify=notify: (
            outputs.append(sid), notify(sid, value)
        )
    # The share phase is over where the first MW-SVSS reconstruct outputs.
    stack.runtime.run_until(lambda: bool(outputs), on_change=True)
    assert "confirm_values" not in MWSVSSInstance.__slots__
    assert _Ledger.__slots__ == ("deal", "deal_row", "ack", "ack_rows")
    acks = deals = batches = 0
    for pid, mgr in stack.vss.items():
        for sid, ledger in mgr.dmm._ledgers.items():
            assert type(ledger.deal) is int
            assert (ledger.deal_row is None) == (not ledger.deal)
            assert (ledger.ack is None) == (ledger.ack_rows is None)
            if ledger.ack is not None:
                cols = dealt[pid, sid]
                assert ledger.ack_rows is cols and cols[0] is None
                assert all(type(monitors) is int for monitors in ledger.ack)
                for j, peer in stack.vss.items():
                    inst = peer.mw.get(sid)
                    if inst is not None and inst.share_vector is not None:
                        assert cols[j] is inst.share_vector
                acks += any(ledger.ack)
            if ledger.deal:
                body = bodies.get((pid, sid)) or mgr.mw[sid].monitor_row
                assert ledger.deal_row is body and len(body) == config.t + 1
                deals += 1
        batches += sum(len(inst.rv_batches or ()) for inst in mgr.mw.values())
    assert acks and deals and batches
    assert set(decoded) == {"_on_rows"}  # SVSS (g, h) rows only
