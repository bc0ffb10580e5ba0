"""Retention regression: a long-lived stack lets go of finished sessions.

Six consecutive coin heights on one n = 4 stack (the ``beacon_n4`` shape:
``build_stack`` + ``make_coins``), then quiescence.  Everything asserted is
deterministic — table sizes, terminal states, and a ``tracemalloc`` total of
what heights 4–6 left behind — no RSS.  See "Session lifetime" in
``docs/ADVERSARY.md`` for the terminal point of each layer.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.broadcast.manager import _DELIVERED_SENT2, _DELIVERED_UNSENT2
from repro.config import SystemConfig
from repro.core.api import build_stack, make_coins
from repro.sim.scheduler import FifoScheduler

#: Retained bytes per height the test tolerates: what is measured (1.68 MB;
#: 1.91 before the DMM's per-session ledgers, 20.4 before retirement — see
#: the table in docs/ADVERSARY.md) plus 25 %.
RETAINED_MB_PER_HEIGHT = 2.1


#: The received polynomials, kept as value rows (tuples) while a session works.
VALUE_ROWS = {"share_vector", "monitor_row", "moderator_row", "g", "h"}


def working_state(inst) -> dict:
    """The containers and value rows ``inst`` holds — what a released
    session must not own (its outcome is not working state: ``sid``,
    ``M_hat``, ``G_hat`` and SVSS's ignore set ``I_j`` stay readable)."""
    names = getattr(type(inst), "__slots__", None) or vars(inst)
    held = {}
    for name in names:
        value = getattr(inst, name)
        if name == "ignored" or value is None:
            continue
        if isinstance(value, (dict, set, list)) or name in VALUE_ROWS:
            held[name] = value
    return held


def beacon_stack(seed: int = 5):
    stack = build_stack(SystemConfig(n=4, seed=seed), scheduler=FifoScheduler())
    return stack, make_coins(stack, "svss")


def flip_height(stack, coins, height: int) -> dict[int, int]:
    csid = ("beacon", height)
    outputs: dict[int, int] = {}
    with stack.runtime.coalescing_step():
        for pid in stack.config.pids:
            coins[pid].join(csid)
            coins[pid].get(csid, lambda v, pid=pid: outputs.setdefault(pid, v))
            coins[pid].release(csid)
    everyone = set(stack.config.pids)
    stack.runtime.run_until(
        lambda: everyone <= set(outputs), max_events=10_000_000, on_change=True
    )
    return outputs


def table_sizes(stack) -> dict:
    """Per process: every table that must not grow with the height."""
    sizes = {}
    for pid in stack.config.pids:
        vss = stack.vss[pid]
        dmm = vss.dmm
        sizes[pid] = {
            "lanes": len(vss._lanes),
            "splits": len(vss.mux._splits),
            "delayed": len(vss._delayed),
            "ledgers": len(dmm._ledgers),
            "owed": len(dmm._owed),
            "armed": len(dmm._armed),
            "armed_min_done": len(dmm._armed_min_done),
        }
    return sizes


@pytest.fixture(scope="module")
def six_heights():
    """Heights 0–2, quiescence, sizes; heights 3–5 under tracemalloc,
    quiescence, sizes and the bytes those three heights still hold."""
    stack, coins = beacon_stack()
    bits = [flip_height(stack, coins, h) for h in range(3)]
    stack.runtime.run_to_quiescence()
    sizes_at_3 = table_sizes(stack)
    tracemalloc.start()
    try:
        bits += [flip_height(stack, coins, h) for h in range(3, 6)]
        stack.runtime.run_to_quiescence()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return stack, bits, sizes_at_3, table_sizes(stack), retained


def test_every_height_outputs_a_unanimous_bit(six_heights):
    _, bits, *_ = six_heights
    assert len(bits) == 6
    for outputs in bits:
        assert set(outputs) == {1, 2, 3, 4}
        assert len(set(outputs.values())) == 1 and set(outputs.values()) <= {0, 1}


def test_every_broadcast_instance_is_a_terminal_marker(six_heights):
    stack, *_ = six_heights
    for pid in stack.config.pids:
        instances = stack.broadcasts[pid]._instances
        assert instances
        assert all(
            inst is _DELIVERED_SENT2 or inst is _DELIVERED_UNSENT2
            for inst in instances.values()
        )


def test_every_session_is_released_and_owns_no_working_set(six_heights):
    stack, *_ = six_heights
    for pid in stack.config.pids:
        vss = stack.vss[pid]
        assert len(vss.svss) == 6 * 16 and len(vss.mw) == 6 * 16 * 32
        for inst in list(vss.mw.values()) + list(vss.svss.values()):
            assert inst.released, inst.sid
            assert working_state(inst) == {}, inst.sid
        # What a finished session still answers: its outcome.
        assert any(inst.output is not None for inst in vss.mw.values())
        assert all(
            inst.M_hat is not None for inst in vss.mw.values() if inst.output is not None
        )


def test_tables_do_not_grow_with_the_height(six_heights):
    _, _, sizes_at_3, sizes_at_6, _ = six_heights
    assert sizes_at_6 == sizes_at_3
    # Fault-free and quiescent: no debt is outstanding, nothing is indexed.
    assert all(not any(sizes.values()) for sizes in sizes_at_6.values())


def test_heights_four_to_six_retain_a_bounded_number_of_bytes(six_heights):
    *_, retained = six_heights
    per_height_mb = retained / 3 / 2**20
    assert per_height_mb <= RETAINED_MB_PER_HEIGHT, f"{per_height_mb:.2f} MB per height"


def test_nobody_is_suspected_after_fault_free_heights(six_heights):
    stack, *_ = six_heights
    for pid in stack.config.pids:
        assert stack.vss[pid].dmm.shunned_or_suspected() == set()


class TestUnattachedSharings:
    """Coin rule: the slot-j sharing of a dealer outside ``T_j`` is released
    once ``T_j`` is delivered *and* its share phase completed locally —
    whichever comes last — and no other sharing is."""

    CSID = ("cc", "unit", 0)

    def joined(self):
        from repro.core.sessions import svss_session

        stack, coins = beacon_stack()
        coin, vss = coins[1], stack.vss[1]
        coin.join(self.CSID)
        session = coin.sessions[self.CSID]
        sharing = {
            (dealer, slot): vss._ensure_svss(svss_session((self.CSID, slot), dealer))
            for dealer in (3, 4)
            for slot in (1, 2)
        }
        return coin, session, sharing

    def test_attach_set_after_local_completion(self):
        coin, session, sharing = self.joined()
        coin._on_share_complete(session, 4, 1)
        coin._on_share_complete(session, 3, 1)
        assert not any(inst.released for inst in sharing.values())  # T_1 unknown
        coin._on_attach(session, 1, (1, 2, 3))
        assert sharing[4, 1].released and working_state(sharing[4, 1]) == {}
        assert not sharing[3, 1].released  # attached: it will be reconstructed
        assert not sharing[4, 2].released  # T_2 is another matter

    def test_local_completion_after_attach_set(self):
        coin, session, sharing = self.joined()
        coin._on_attach(session, 2, (1, 2, 3))
        # Not before local completion: others may still need our part in it.
        assert not sharing[4, 2].released
        coin._on_share_complete(session, 3, 2)
        coin._on_share_complete(session, 4, 2)
        assert sharing[4, 2].released and not sharing[3, 2].released
        assert not sharing[4, 1].released


def test_slow_dealer_is_released_and_its_late_children_are_the_known_gap():
    """An honest dealer whose every message is 50x late: its sharings
    complete after the attach sets went out, are released on completion,
    and the coin still outputs.  The pair invocations it opens under parents
    that already finished are created live and stay (ROADMAP item 4,
    "what is left") — pinned here so the gap is closed on purpose."""
    from repro.core.api import flip_common_coin
    from repro.sim.scheduler import TargetedDelayScheduler

    result, stack = flip_common_coin(
        SystemConfig(n=4, seed=1),
        scheduler=TargetedDelayScheduler(FifoScheduler(), {4}, 50.0),
    )
    assert set(result.outputs) == {1, 2, 3, 4} and len(set(result.outputs.values())) == 1
    stack.runtime.run_to_quiescence()
    for pid in (1, 2, 3):
        vss = stack.vss[pid]
        assert all(inst.released for inst in vss.svss.values())
        live = [inst for inst in vss.mw.values() if not inst.released]
        assert live and all(inst.dealer == 4 for inst in live)
        assert all(vss.svss[inst.sid[1]].released for inst in live)
    assert all(inst.released for inst in stack.vss[4].mw.values())


def test_output_inside_begin_reconstruct_before_the_walk_over_g_hat_ends(monkeypatch):
    """``Ĝ`` = everyone, but ``Ĝ_4`` leaves out 4's self-pair: every pair
    invocation the last member needs is begun while the walk is still at
    k = 3.  A process that begins R after the others finished gets each
    ``rv`` it needs at once, so its session outputs — and is released —
    before the walk reaches k = 4; it must finish the walk unharmed and owe
    nobody a reveal."""
    from repro.core.api import run_svss
    from repro.core.svss import SVSSInstance

    def freeze_with_a_short_last_set(self):
        self.G_frozen = True
        full = (1, 2, 3, 4)
        body = (full, ((1, full), (2, full), (3, full), (4, (1, 2, 3))))
        self.manager.rb_broadcast(self.sid, "G", body)

    monkeypatch.setattr(SVSSInstance, "_freeze_g", freeze_with_a_short_last_set)
    result, stack = run_svss(
        SystemConfig(n=4, seed=3), dealer=1, secret=11, reconstruct=False
    )
    assert result.share_completed == {1, 2, 3, 4}
    stack.runtime.run_to_quiescence()
    sid = result.session
    for pid in (1, 2, 3):
        stack.vss[pid].svss_begin_reconstruct(sid)
    stack.runtime.run_to_quiescence()
    late = stack.vss[4].svss[sid]
    stack.vss[4].svss_begin_reconstruct(sid)
    assert late.output == 11 and late.released  # before anything was delivered
    stack.runtime.run_to_quiescence()
    for pid in stack.config.pids:
        vss = stack.vss[pid]
        assert vss.svss[sid].output == 11
        assert not vss.dmm._armed and not vss.dmm._owed and not vss.dmm._ledgers
        assert all(inst.released for inst in vss.mw.values())
