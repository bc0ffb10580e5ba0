"""Batched slot-vector ingestion: group verdicts, slot lanes, vote vectors.

The acceptance property mirrors the svec contract one layer down: one
received slot-vector costs one group-level DMM verdict, each slot's
instance found in the group's lane, instead of ``n`` per-slot verdict
chains, while staying equivalent *slot for slot* to ``VSSManager._ingest``
— the path a plain ``("v", sid, kind, body)`` message takes.  The unit
cases here take that path as their living reference (the same entries, one
message at a time); whole-run equivalence with the deleted per-slot unpack
loop is replayed from ``tests/golden/dispatch_equiv.json``
(``tests/test_dispatch_equiv.py``).  The vote-vector tests pin the same
discipline one layer up (``K`` concurrent agreements packing their
per-step votes).
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.behaviors import ABALiarBehavior
from repro.adversary.controller import Adversary
from repro.adversary.schedulers import SlotSplittingScheduler
from repro.config import SystemConfig
from repro.core.api import build_stack, flip_common_coin
from repro.core.agreement import ABAProcess
from repro.core.sessions import SVEC_MW, SVEC_SVSS, mw_session, svec_sid
from repro.core.vectormux import SVEC_TAG
from repro.sim.scheduler import FifoScheduler


class TestBitIdenticalCoin:
    def test_batched_path_actually_engages(self):
        """The headline metric: group verdicts shrink per-slot handler
        work.  With slots split every value message takes ``_ingest`` and
        pays its own verdict — the count the deleted per-slot unpack loop
        paid too (``BENCH_coin.json``: 378 035 both ways at n=7)."""

        def flip(scheduler):
            result, _ = flip_common_coin(SystemConfig(n=4, seed=1), scheduler=scheduler)
            return result

        on, off = flip(FifoScheduler()), flip(SlotSplittingScheduler(FifoScheduler()))
        assert on.outputs == off.outputs
        assert on.svec_batch_ingested > 0
        assert on.dmm_verdicts_batched > 0
        assert on.dmm_verdict_calls * 3 <= off.dmm_verdict_calls
        assert off.svec_batch_ingested == 0
        assert off.dmm_verdicts_batched == 0


def make_manager():
    stack = build_stack(SystemConfig(n=4, seed=0), scheduler=FifoScheduler())
    return stack, stack.vss[1]


def arm_sender(mgr, sender, session, value=7):
    """Give ``sender`` an armed (completed-session) expectation, so its
    later-begun sessions draw DELAY verdicts — the shunning delay rule."""
    mgr.clock.note_begin(session)
    mgr.clock.note_complete(session)
    mgr.dmm.expect_deal(sender, session, (value,) * (mgr.t + 1), None)  # f̂ ≡ value: its mon body
    mgr.dmm.on_session_reconstructed(session)


def deliver_entries(mgr, src, group, kind, slots, bodies, as_vector):
    """One slot-vector, or — the living per-slot reference — the same
    slots as the plain ``("v", sid, kind, body)`` messages an unpacked
    sender emits, one ``_ingest`` chain each."""
    if as_vector:
        mgr.mux.on_private(src, (SVEC_TAG, kind, group, slots, bodies))
    else:
        for slot, body in zip(slots, bodies):
            mgr._on_private(src, ("v", svec_sid(group, slot), kind, body))


class TestGroupVerdictFallback:
    """Satellite: verdict divergence across a vector's slots falls back to
    per-slot filtering with outcomes identical to per-slot delivery."""

    GROUP = (SVEC_MW, ("cc", "solo", 0), 2, 2, 3, "md")

    def drive(self, as_vector, spy_handle):
        """One vector whose slot-1 session began *before* and slot-2
        session *after* the sender's armed session completed: slot 1 must
        FORWARD while slot 2 must DELAY."""
        stack, mgr = make_manager()
        sid1 = svec_sid(self.GROUP, 1)
        sid2 = svec_sid(self.GROUP, 2)
        inst1 = mgr._ensure_mw(sid1)  # begun before the armed session
        handled = []
        spy_handle(inst1, lambda *a: handled.append(a))
        arm_sender(mgr, 2, mw_session(("owed", 0), 2, 3, "dm"))
        mgr._ensure_mw(sid2)  # begun after => owed < begun => DELAY
        mgr.dmm.dirty.clear()
        deliver_entries(mgr, 2, self.GROUP, "cnf", (1, 2), (11, 22), as_vector)
        return stack, mgr, handled, sid1, sid2

    def test_divergent_slots_fall_back_per_slot(self, spy_handle):
        stack, mgr, handled, sid1, sid2 = self.drive(True, spy_handle)
        assert handled == [(2, "cnf", 11)]
        assert set(mgr._delayed) == {(2, sid2)}
        assert stack.runtime.dmm_verdict_fallbacks == 2
        assert stack.runtime.dmm_verdicts_batched == 0

    def test_outcomes_identical_to_unbatched(self, spy_handle):
        stack_on, mgr_on, handled_on, *_ = self.drive(True, spy_handle)
        stack_off, mgr_off, handled_off, *_ = self.drive(False, spy_handle)
        assert handled_on == handled_off
        assert mgr_on._delayed == mgr_off._delayed
        # Two divergent slots: as many verdicts either way, plus the one
        # group-level attempt that could not cover them.
        assert stack_off.runtime.dmm_verdict_calls == 2
        assert stack_on.runtime.dmm_verdict_calls == 3

    def test_uniform_delay_takes_group_verdict(self):
        """Both slots begun after arming: one group verdict parks both,
        exactly as two per-slot verdicts do."""

        def drive(as_vector):
            stack, mgr = make_manager()
            arm_sender(mgr, 2, mw_session(("owed", 0), 2, 3, "dm"))
            mgr._ensure_mw(svec_sid(self.GROUP, 1))
            mgr._ensure_mw(svec_sid(self.GROUP, 2))
            mgr.dmm.dirty.clear()
            deliver_entries(mgr, 2, self.GROUP, "cnf", (1, 2), (11, 22), as_vector)
            return stack.runtime, mgr

        runtime, mgr = drive(as_vector=True)
        reference_runtime, reference = drive(as_vector=False)
        assert set(mgr._delayed) == {
            (2, svec_sid(self.GROUP, 1)),
            (2, svec_sid(self.GROUP, 2)),
        }
        assert mgr._delayed == reference._delayed
        assert runtime.dmm_verdicts_batched == 2
        assert runtime.dmm_verdict_fallbacks == 0
        assert (runtime.dmm_verdict_calls, reference_runtime.dmm_verdict_calls) == (1, 2)

    def test_convicted_sender_discarded_whole(self, spy_handle):
        for as_vector in (True, False):
            stack, mgr = make_manager()
            mgr.dmm.D.add(2)
            handled = []
            inst1 = mgr._ensure_mw(svec_sid(self.GROUP, 1))
            spy_handle(inst1, lambda *a: handled.append(a))
            deliver_entries(mgr, 2, self.GROUP, "cnf", (1, 2), (11, 22), as_vector)
            assert handled == []
            assert mgr._delayed == {}


class TestBatchedUnpackSemantics:
    """The per-slot degradation contract on MW-SVSS groups (SVSS groups
    and the mux's frame checks live in ``tests/test_svec.py``)."""

    GROUP = (SVEC_MW, ("cc", "solo", 0), 2, 2, 3, "md")

    def spy(self, mgr, slots, spy_handle):
        handled = {}
        for slot in slots:
            inst = mgr._ensure_mw(svec_sid(self.GROUP, slot))
            calls = handled[slot] = []
            spy_handle(inst, lambda *a, calls=calls: calls.append(a))
        return handled

    def test_malformed_slots_degrade_independently(self, spy_handle):
        _, mgr = make_manager()
        handled = self.spy(mgr, (1, 3), spy_handle)
        slots = (1, "junk", (2,), [1], "x", True, 3)
        mgr.mux.on_private(2, (SVEC_TAG, "cnf", self.GROUP, slots, (5, 6, 7, 7, 8, 8, 9)))
        assert handled[1] == [(2, "cnf", 5)]
        assert handled[3] == [(2, "cnf", 9)]

    def test_crash_mid_vector_drops_remaining_slots(self, spy_handle):
        _, mgr = make_manager()
        handled = self.spy(mgr, (1, 2, 3, 4), spy_handle)
        crash_after = 2

        def crashing(*a):
            handled[2].append(a)
            mgr.host.crashed = True

        spy_handle(mgr.mw[svec_sid(self.GROUP, 2)], crashing)
        mgr.mux.on_private(2, (SVEC_TAG, "cnf", self.GROUP, (1, 2, 3, 4), (5, 6, 7, 8)))
        assert len(handled[1]) + len(handled[2]) == crash_after
        assert handled[3] == [] and handled[4] == []

    def test_transport_enforcement_covers_vectors(self, spy_handle):
        _, mgr = make_manager()
        handled = self.spy(mgr, (1,), spy_handle)
        mgr.mux.on_private(2, (SVEC_TAG, "L", self.GROUP, (1,), ((2, 3),)))
        mgr.mux.on_rb(2, (SVEC_TAG, (("cnf", self.GROUP, (1,), (5,)),)))
        assert handled[1] == []

    def test_forged_group_dropped_whole(self):
        stack, mgr = make_manager()
        bad_dealer = (SVEC_MW, ("cc", "solo", 0), 9, 9, 3, "md")
        mgr.mux.on_private(2, (SVEC_TAG, "cnf", bad_dealer, (1,), (5,)))
        assert mgr.mw == {}
        assert stack.runtime.svec_batch_ingested == 0


class TestForgedColumns:
    """Forged vectors drop exactly what the per-slot path drops and grant
    nothing more: each case is delivered once as a vector and once as the
    plain per-slot messages of the slots that survive (the reference)."""

    GROUP = (SVEC_MW, ("cc", "solo", 0), 2, 2, 3, "md")

    def outcome(self, spy_handle, deliver):
        """What one delivery leaves on a fresh manager whose slot 1–4
        sessions exist: the handle calls by slot, the session table, the
        parked messages and the verdicts paid."""
        stack, mgr = make_manager()
        handled = []
        for slot in (1, 2, 3, 4):
            inst = mgr._ensure_mw(svec_sid(self.GROUP, slot))
            spy_handle(inst, lambda *a, slot=slot: handled.append((slot, *a)))
        deliver(mgr)
        return handled, set(mgr.mw), mgr._delayed, stack.runtime.dmm_verdict_calls

    def per_slot(self, kind, slots, bodies):
        def deliver(mgr):
            for slot, body in zip(slots, bodies):
                mgr._on_private(2, ("v", svec_sid(self.GROUP, slot), kind, body))

        return deliver

    def vector(self, kind, slots, bodies):
        return lambda mgr: mgr.mux.on_private(2, (SVEC_TAG, kind, self.GROUP, slots, bodies))

    def test_malformed_columns_drop_the_whole_vector(self, spy_handle):
        nothing = self.outcome(spy_handle, lambda mgr: None)
        for slots, bodies in (
            ([1, 2], (11, 22)),  # a list column
            ((1, 2), [11, 22]),
            ((1, 2), (11,)),  # columns of different lengths
            ((1,), (11, 22)),
            (((1, 11), (2, 22)), ()),  # the pair shape
        ):
            got = self.outcome(spy_handle, self.vector("cnf", slots, bodies))
            assert got == nothing, (slots, bodies)

    def test_non_int_slots_drop_alone(self, spy_handle):
        slots = (1, "x", 2.0, True, None, 3)
        bodies = (11, 0, 0, 0, 0, 33)
        got = self.outcome(spy_handle, self.vector("cnf", slots, bodies))
        want = self.outcome(spy_handle, self.per_slot("cnf", (1, 3), (11, 33)))
        assert got[:3] == want[:3]
        assert got[0] == [(1, 2, "cnf", 11), (3, 2, "cnf", 33)]
        # One group verdict instead of two per-slot ones.
        assert (got[3], want[3]) == (1, 2)

    def test_duplicate_slots_are_delivered_in_order(self, spy_handle):
        slots, cnf = (1, 2, 1), (11, 22, 33)
        got = self.outcome(spy_handle, self.vector("cnf", slots, cnf))
        assert got[:3] == self.outcome(spy_handle, self.per_slot("cnf", slots, cnf))[:3]
        assert [call[0] for call in got[0]] == [1, 2, 1]
        # Every slot's handler gets its body as it came, to check and decode.
        mon = ((1, 2), (3, 4), (5, 6))
        got = self.outcome(spy_handle, self.vector("mon", slots, mon))
        assert got[:3] == self.outcome(spy_handle, self.per_slot("mon", slots, mon))[:3]
        assert all(len(call) == 4 for call in got[0])  # (slot, src, kind, body)

    MODERATED = (SVEC_MW, ("cc", "solo", 0), 2, 2, 1, "md")  # process 1 moderates
    DEALT = (SVEC_SVSS, ("cc", "solo", 0), 2)
    GOOD, OTHER, ROWS = (1, 2), (3, 4), ((1, 2), (3, 4))

    @pytest.mark.parametrize(
        "group, src, kind, slots, bodies, received",
        [
            # process 1 monitors dealer 2's f̂_j (GROUP) and moderates f̂
            (GROUP, 2, "mon", (1, 2, 3), (GOOD, OTHER, GOOD), {1, 2, 3}),
            (GROUP, 4, "mon", (1, 2), (GOOD, OTHER), set()),
            (GROUP, 2, "mon", (1, 2, 1), (GOOD, OTHER, (5, 6)), {1, 2}),
            (GROUP, 2, "mon", (1, 2, 3), (GOOD, "garbage", (1,)), {1}),
            (MODERATED, 2, "mod", (1, 2), (GOOD, OTHER), {1, 2}),
            (MODERATED, 4, "mod", (1, 2), (GOOD, OTHER), set()),
            (MODERATED, 2, "mod", (2, 2), (GOOD, OTHER), {2}),
            (MODERATED, 2, "mod", (1, 2), (GOOD, (1, 2, 3)), {1}),
            (GROUP, 2, "mod", (1, 2), (GOOD, OTHER), set()),  # process 1 does not moderate
            (DEALT, 2, "rows", (1, 2, 3), (ROWS, ROWS[::-1], ROWS), {1, 2, 3}),
            (DEALT, 3, "rows", (1, 2), (ROWS, ROWS), set()),
            (DEALT, 2, "rows", (1, 1), (ROWS, ROWS[::-1]), {1}),
            (DEALT, 2, "rows", (1, 2, 3), (ROWS, "garbage", ((1,), (2,))), {1}),
        ],
        ids=[
            f"{kind}-{case}"
            for kind in ("mon", "mod")
            for case in ("dealer", "non-dealer", "repeated-slot", "malformed-body")
        ]
        + ["mod-not-the-moderator"]
        + [f"rows-{case}" for case in ("dealer", "non-dealer", "repeated-slot", "malformed-body")],
    )
    def test_value_bodies_leave_what_the_per_slot_path_leaves(
        self, group, src, kind, slots, bodies, received
    ):
        """``mon`` / ``mod`` / ``rows`` bodies reach the real handlers, the
        one check and decode they get, the same fed either way: the slots'
        received polynomials, the session tables and the messages sent."""

        def state(as_vector):
            stack, mgr = make_manager()
            deliver_entries(mgr, src, group, kind, slots, bodies, as_vector)
            held = {}
            for slot in sorted(set(slots)):
                sid = svec_sid(group, slot)
                if group[0] == SVEC_SVSS:
                    held[slot] = (mgr.svss[sid].g, mgr.svss[sid].h)
                else:
                    held[slot] = (mgr.mw[sid].monitor_row, mgr.mw[sid].moderator_row)
            tables = set(mgr.mw), set(mgr.svss), mgr._delayed
            return held, tables, stack.runtime.trace.total_messages

        got = state(as_vector=True)
        assert got == state(as_vector=False)
        assert {slot for slot, polys in got[0].items() if polys != (None, None)} == received

    def test_fold_items_of_the_wrong_arity_drop_alone(self, spy_handle):
        good = ("ack", self.GROUP, (1, 2), (None, None))
        fold = (
            ("ack", self.GROUP, (3,)),
            good,
            ("ack", self.GROUP, (4,), (None,), "extra"),
        )
        got = self.outcome(spy_handle, lambda mgr: mgr.mux.on_rb(2, (SVEC_TAG, fold)))

        def per_slot(mgr):
            for slot in (1, 2):
                mgr._on_rb(2, ("vss", svec_sid(self.GROUP, slot), "ack", None))

        assert got == self.outcome(spy_handle, per_slot)
        assert got[0] == [(1, 2, "ack", None), (2, 2, "ack", None)]


class TestDelayedBacklogIndex:
    """Satellite: the parked-message index re-examines only keys of senders
    whose DMM state actually moved — no full-backlog re-scan."""

    def park(self, mgr, sender, owed_session, count):
        arm_sender(mgr, sender, owed_session)
        mgr._release_delayed()  # drain the arming dirt before parking
        for i in range(count):
            sid = mw_session(("backlog", sender, i), sender, 3, "dm")
            mgr._ingest(sender, sid, "cnf", 123)
        assert sum(1 for key in mgr._delayed if key[0] == sender) == count

    def test_release_rescans_only_dirty_senders_keys(self):
        _, mgr = make_manager()
        owed2 = mw_session(("owed", 2), 2, 3, "dm")
        owed4 = mw_session(("owed", 4), 4, 3, "dm")
        self.park(mgr, 2, owed2, count=25)
        self.park(mgr, 4, owed4, count=25)
        seen = []
        orig = mgr.dmm.filter_verdict
        mgr.dmm.filter_verdict = lambda s, sid: (seen.append(s), orig(s, sid))[1]
        # Sender 2 pays its debt: only its 25 keys may be re-filtered.
        mgr.dmm.check_reconstruct_batch(2, owed2, mgr.parse_rv(((1, 7),)))
        mgr._release_delayed()
        assert seen == [2] * 25
        assert all(key[0] == 4 for key in mgr._delayed)
        assert len(mgr._delayed) == 25

    def test_released_backlog_replays_in_park_order(self, spy_handle):
        _, mgr = make_manager()
        owed = mw_session(("owed", 2), 2, 3, "dm")
        arm_sender(mgr, 2, owed)
        mgr._release_delayed()
        order = []
        sids = [mw_session(("replay", i), 2, 3, "dm") for i in range(10)]
        for sid in sids:
            mgr._ingest(2, sid, "cnf", 123)
            spy_handle(mgr.mw[sid], lambda *a, sid=sid: order.append(sid))
        mgr.dmm.check_reconstruct_batch(2, owed, mgr.parse_rv(((1, 7),)))
        mgr._release_delayed()
        assert order == sids
        assert mgr._delayed == {}


class _NullCoin:
    """Inert CoinSource stand-in for direct ABAProcess wiring."""

    def join(self, sid):
        pass

    def release(self, sid):
        pass

    def get(self, sid, callback):
        callback(0)


class TestVoteVectorMux:
    """Layer 3: K concurrent agreements pack their per-step votes."""

    @staticmethod
    def delivered_abav_bids(stack):
        return {
            bid
            for pid in stack.config.pids
            for bid in stack.broadcasts[pid]._instances
            if len(bid) > 1
            and bid[1] == "abav"
            and stack.broadcasts[pid].delivered(bid)
        }

    def run_instances(self, k, adversary=None, seed=0):
        """K concurrent ideal-coin agreements driven directly on a stack."""
        stack = build_stack(
            SystemConfig(n=4, seed=seed), scheduler=FifoScheduler(), adversary=adversary
        )
        procs = {
            (pid, i): ABAProcess(
                stack.runtime.host(pid),
                stack.broadcasts[pid],
                _NullCoin(),
                instance_id=("k", i),
            )
            for i in range(k)
            for pid in stack.config.pids
        }
        with stack.runtime.coalescing_step():
            for pid in stack.config.pids:
                for i in range(k):
                    procs[(pid, i)].start((pid + i) % 2)
        stack.runtime.run_to_quiescence()
        return stack, procs

    def test_concurrent_instances_pack_votes(self):
        stack, procs = self.run_instances(3)
        nonfaulty = set(stack.nonfaulty())
        for (pid, i), proc in procs.items():
            if pid in nonfaulty:
                assert proc.decided is not None, (pid, i)
        assert self.delivered_abav_bids(stack)

    def test_decisions_identical_to_unpacked(self):
        """The A/B discipline one layer up: packed vote vectors leave every
        instance's decisions exactly where plain per-vote broadcasts do."""

        def decisions(scheduler):
            stack = build_stack(SystemConfig(n=4, seed=0), scheduler=scheduler)
            procs = {
                (pid, i): ABAProcess(
                    stack.runtime.host(pid),
                    stack.broadcasts[pid],
                    _NullCoin(),
                    instance_id=("k", i),
                )
                for i in range(3)
                for pid in stack.config.pids
            }
            with stack.runtime.coalescing_step():
                for pid in stack.config.pids:
                    for i in range(3):
                        procs[(pid, i)].start((pid + i) % 2)
            stack.runtime.run_to_quiescence()
            return {key: proc.decided for key, proc in procs.items()}

        assert decisions(FifoScheduler()) == decisions(SlotSplittingScheduler(FifoScheduler()))

    def test_solo_agreement_never_packs(self):
        """A single live instance replays the per-vote wire stream."""
        stack, procs = self.run_instances(1)
        assert all(p.decided is not None for p in procs.values())
        assert not self.delivered_abav_bids(stack)

    def test_byzantine_host_never_packs(self):
        """A host with a behaviour emits plain per-instance votes, so vote
        mutators keep acting on logical votes."""
        adversary = Adversary({4: ABALiarBehavior(random.Random(0))})
        stack, procs = self.run_instances(3, adversary=adversary)
        bids = self.delivered_abav_bids(stack)
        assert bids  # honest hosts still packed
        assert all(bid[0] != 4 for bid in bids)

    def test_forged_vote_vector_validated_per_entry(self):
        """A forged ("abav", ...) vector grants nothing beyond broadcasting
        the votes individually: per-entry shape + per-instance validation."""
        stack = build_stack(SystemConfig(n=4, seed=0), scheduler=FifoScheduler())
        host = stack.runtime.host(1)
        procs = [
            ABAProcess(
                host, stack.broadcasts[1], _NullCoin(), instance_id=("k", k)
            )
            for k in range(2)
        ]
        mux = host.module("abav")
        assert mux.live == 2
        mux._on_rb(
            3,
            (
                "abav",
                0,
                (
                    (("k", 0), 1, 1, 1),  # valid
                    "junk",  # malformed entry: dropped alone
                    (("k", 0), 1, 9, 0),  # bad phase: dropped by _on_rb
                    (("k", 1), 1, 1, "x"),  # non-binary vote: dropped
                    (("k", 1), 1, 1, 0),  # valid
                    (("gone", 7), 1, 1, 0),  # unknown instance: dropped
                ),
            ),
        )
        assert procs[0]._round_state(1).received[1] == {3: 1}
        assert procs[1]._round_state(1).received[1] == {3: 0}

    def test_closed_instances_stop_counting(self):
        stack = build_stack(SystemConfig(n=4, seed=0), scheduler=FifoScheduler())
        host = stack.runtime.host(1)
        procs = [
            ABAProcess(
                host, stack.broadcasts[1], _NullCoin(), instance_id=("c", k)
            )
            for k in range(2)
        ]
        mux = host.module("abav")
        assert mux.live == 2
        procs[0].close()
        assert mux.live == 1
        # A lone survivor falls back to plain broadcasts even mid-step.
        stack.runtime.svec_buffering = True
        try:
            assert not mux.offer((1, "aba", ("c", 1), 1, 1), ("aba", ("c", 1), 1, 1, 0))
        finally:
            stack.runtime.svec_buffering = False
