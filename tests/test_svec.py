"""Session-vector aggregation: packing, determinism, adversary contract.

The load-bearing property is that slot-vector aggregation is a pure
*logical-message-count* optimization: under fixed-delay schedulers one
SVSS-coin invocation produces bit-identical coin outputs and per-session
justifiers (attach sets, accepted sets, eval sets, party values) to the
same run under a ``SlotSplittingScheduler`` — which packs nothing — per
seed, while dispatching ~n× fewer logical messages.  The adversarial tests
pin the extended PR-4 contract: corrupt senders emit per-session messages
(mutators and crash budgets act on logical *slot* messages), a slot-level
fault never poisons its vector siblings, a receiver crash mid-vector
drops the remaining slots, and the slot-split run is the per-session wire
the deleted ``svec=False`` keyword ran, count for count.
"""

from __future__ import annotations

import json

import pytest

from repro.adversary.behaviors import ByzantineBehavior, MutatingBehavior
from repro.adversary.controller import Adversary
from repro.adversary.schedulers import (
    EnvelopeSplittingScheduler,
    SlotSplittingScheduler,
    per_message,
)
from repro.config import SystemConfig
from repro.core.api import flip_common_coin, run_byzantine_agreement
from repro.core.sessions import SVEC_MW, SVEC_SVSS, svec_sid, svec_split
from repro.core.vectormux import FOLD_MAX_VECTORS, SVEC_TAG
from repro.errors import SimulationError
from repro.sim.scheduler import FifoScheduler

#: Coin-session justifier state compared across transport modes.
JUSTIFIERS = (
    "t_hat",
    "acc_sets",
    "accepted",
    "supported",
    "eval_set",
    "batch_done",
    "party_values",
    "output",
)


def flip(n, seed, quiesce=True, split=None, **kw):
    """One FIFO coin; ``split`` wraps the scheduler (``SlotSplittingScheduler``
    / ``EnvelopeSplittingScheduler`` / :func:`per_message`)."""
    scheduler = kw.pop("scheduler", None) or FifoScheduler()
    result, stack = flip_common_coin(
        SystemConfig(n=n, seed=seed),
        scheduler=split(scheduler) if split else scheduler,
        **kw,
    )
    if quiesce:
        # Justifier comparisons need both runs at the same (final) point;
        # a predicate-stopped run may truncate mid-step.
        stack.runtime.run_to_quiescence()
    return result, stack


def coin_justifiers(stack):
    state = {}
    for pid in stack.config.pids:
        coin = stack.runtime.host(pid).module("coin")
        for csid, session in coin.sessions.items():
            state[(pid, csid)] = {
                name: getattr(session, name) for name in JUSTIFIERS
            }
    return state


class TestBitIdenticalCoin:
    """The acceptance property: vectors packed vs slots split, per seed."""

    @pytest.mark.parametrize("seed", range(3))
    def test_coin_outputs_and_justifiers_identical(self, seed):
        """With envelopes split on both sides, so the only difference is the
        vectors; the default against the per-message run rides along."""
        off, stack_off = flip(4, seed, split=per_message)
        on, stack_on = flip(4, seed, split=EnvelopeSplittingScheduler)
        both, stack_both = flip(4, seed)
        assert both.outputs == on.outputs == off.outputs
        assert coin_justifiers(stack_on) == coin_justifiers(stack_off)
        assert coin_justifiers(stack_both) == coin_justifiers(stack_off)
        # The aggregation must actually bite: ~n× fewer logical messages.
        assert on.svec_packed > 0 == off.svec_packed
        assert on.svec_slots >= 2 * on.svec_packed
        assert off.logical_messages >= 3 * on.logical_messages

    def test_composes_with_coalescing(self):
        """svec packs logical messages, coalesce packs wire events; together
        the vectors still ride envelopes."""
        base, _ = flip(4, 7, split=per_message)
        svec_only, _ = flip(4, 7, split=EnvelopeSplittingScheduler)
        both, stack = flip(4, 7)
        assert both.outputs == base.outputs == svec_only.outputs
        # Not coalescing-invariant: an envelope delivery is one bigger
        # step, and a step's reliable broadcasts fold into one RB.
        assert 3 * both.logical_messages < svec_only.logical_messages
        assert both.envelopes_pushed > 0
        assert both.events_dispatched < svec_only.events_dispatched
        assert both.svec_packed == svec_only.svec_packed

    def test_replay_deterministic(self):
        a, _ = flip(4, 3, quiesce=False)
        b, _ = flip(4, 3, quiesce=False)
        assert a.outputs == b.outputs
        assert a.events_dispatched == b.events_dispatched
        assert a.svec_packed == b.svec_packed
        assert a.svec_slots == b.svec_slots
        assert a.sim_time == b.sim_time

    def test_agreement_decisions_identical(self):
        """The full agreement stack over the SVSS coin: per-seed A/B."""

        def run(scheduler):
            return run_byzantine_agreement(
                [i % 2 for i in range(4)],
                SystemConfig(n=4, seed=7),
                coin="svss",
                scheduler=scheduler,
            )

        off, on = run(SlotSplittingScheduler(FifoScheduler())), run(FifoScheduler())
        assert off.agreed and on.agreed
        assert on.decisions == off.decisions
        assert on.rounds == off.rounds
        assert on.svec_packed > 0
        assert on.logical_messages < off.logical_messages

    def test_batched_agreement_decisions_identical(self):
        """K concurrent instances sharing one coin per round: the gate's
        shared sessions aggregate too, per-instance decisions unchanged."""
        from repro.core.api import run_byzantine_agreement_batch

        rows = [[(i + s) % 2 for i in range(4)] for s in range(3)]

        def run(scheduler):
            return run_byzantine_agreement_batch(
                rows, SystemConfig(n=4, seed=3), coin="svss", scheduler=scheduler
            )

        off, on = run(per_message(FifoScheduler())), run(FifoScheduler())
        assert off.agreed and on.agreed
        for iid in off.instance_ids:
            assert on.results[iid].decisions == off.results[iid].decisions, iid
        assert on.svec_packed > 0
        assert on.logical_messages < off.logical_messages

    def test_scenario_svec_axis(self):
        from repro.sim.experiments import Scenario, run_scenario

        """Packing is the scheduler axis: same seed, same uniform delays,
        with and without the slot veto."""
        on = run_scenario(
            Scenario(n=4, seed=1, scheduler="uniform", coin="svss")
        )
        off = run_scenario(
            Scenario(n=4, seed=1, scheduler="slot-split", coin="svss")
        )
        assert off.agreed and on.agreed
        # Aggregation counters are surfaced on the record, so sweeps
        # compute ratios without reaching into the Runtime.
        assert on.svec_packed > 0
        assert on.svec_slots / on.svec_packed > 1.0
        assert on.logical_messages < off.logical_messages
        assert off.svec_packed == 0 and off.svec_slots == 0


class TestSlotVectorUnpack:
    """Receiver-side slot-vector semantics, driven directly on the mux with
    SVSS-group vectors (``tests/test_batch_ingest.py`` drives MW-SVSS
    groups): the mux checks the frame, ``ingest_vector`` every slot.
    """

    def make_manager(self, svec=True):
        from repro.core.api import build_stack

        scheduler = FifoScheduler()
        if not svec:
            scheduler = SlotSplittingScheduler(scheduler)
        stack = build_stack(SystemConfig(n=4, seed=0), scheduler=scheduler)
        return stack, stack.vss[1]

    @staticmethod
    def group_for(csid=("cc", "solo", 0), dealer=2):
        return ("s", csid, dealer)

    def spy_sessions(self, manager, group, slots, crash_after=None):
        """Record ``(slot, src, kind, body)`` of every ``handle`` call the
        per-slot sessions of ``group`` receive."""
        calls = []

        def spy(slot, src, kind, body):
            calls.append((slot, src, kind, body))
            if crash_after is not None and len(calls) == crash_after:
                manager.host.crashed = True

        for slot in slots:
            inst = manager._ensure_svss(svec_sid(group, slot))
            inst.handle = lambda *a, slot=slot: spy(slot, *a)
        return calls

    def spy_vectors(self, manager):
        calls = []
        manager.ingest_vector = lambda *a: calls.append(a)
        return calls

    def test_unpack_feeds_per_slot_sessions(self):
        _, mgr = self.make_manager()
        group = self.group_for()
        calls = self.spy_sessions(mgr, group, (1, 2))
        mgr.mux.on_private(2, (SVEC_TAG, "rows", group, (1, 2), (5, 6)))
        assert calls == [(1, 2, "rows", 5), (2, 2, "rows", 6)]

    def test_malformed_slots_degrade_independently(self):
        """A bad slot never poisons its vector siblings."""
        _, mgr = self.make_manager()
        group = self.group_for()
        calls = self.spy_sessions(mgr, group, (1, 2, 3))
        slots = (1, "junk", (2,), [1], "x", True, 3)
        mgr.mux.on_private(2, (SVEC_TAG, "rows", group, slots, (5, 6, 7, 7, 8, 8, 9)))
        assert calls == [(1, 2, "rows", 5), (3, 2, "rows", 9)]

    def test_crash_mid_vector_drops_remaining_slots(self):
        _, mgr = self.make_manager()
        group = self.group_for()
        calls = self.spy_sessions(mgr, group, (1, 2, 3, 4), crash_after=2)
        mgr.mux.on_private(2, (SVEC_TAG, "rows", group, (1, 2, 3, 4), (5, 6, 7, 8)))
        assert [c[0] for c in calls] == [1, 2]  # slots 3 and 4 died with the crash

    def test_transport_enforcement_covers_vectors(self):
        """A private vector cannot smuggle RB kinds, and vice versa —
        the same dealer-equivocation defence as the per-session paths."""
        _, mgr = self.make_manager()
        calls = self.spy_vectors(mgr)
        group = self.group_for()
        mgr.mux.on_private(2, (SVEC_TAG, "L", group, (1,), ((2, 3),)))
        mgr.mux.on_rb(2, (SVEC_TAG, (("cnf", group, (1,), (5,)),)))
        assert calls == []

    def test_forged_garbage_dropped_whole(self):
        _, mgr = self.make_manager()
        calls = self.spy_vectors(mgr)
        mux = mgr.mux
        group = self.group_for()
        mux.on_private(2, (SVEC_TAG, "cnf", group, (1,)))  # short
        mux.on_private(2, (SVEC_TAG, "cnf", group, (1,), (5,), ()))  # long
        mux.on_private(2, (SVEC_TAG, 7, group, (1,), (5,)))  # non-str kind
        mux.on_private(2, (SVEC_TAG, "cnf", "nope", (1,), (5,)))  # bad group
        mux.on_private(2, (SVEC_TAG, "cnf", ("s", [1], 2), (1,), (5,)))  # unhashable
        mux.on_private(2, (SVEC_TAG, "cnf", ("m", 0, 1, 2, 3, "xx"), (1,), (5,)))
        mux.on_private(2, (SVEC_TAG, "cnf", group, [1, 2], (5, 6)))  # a list column
        mux.on_private(2, (SVEC_TAG, "cnf", group, (1, 2), [5, 6]))
        mux.on_private(2, (SVEC_TAG, "cnf", group, (1, 2), (5,)))  # unequal columns
        mux.on_private(2, (SVEC_TAG, "cnf", group, (1,), (5, 6)))
        mux.on_private(2, (SVEC_TAG, "cnf", group, ((1, 5),)))  # the pair shape
        assert calls == []

    def test_svec_tag_reserved(self):
        stack, _ = self.make_manager(svec=False)
        with pytest.raises(SimulationError):
            stack.runtime.host(1).register_handler(SVEC_TAG, lambda s, p: None)

    def test_split_round_trip(self):
        families = {("cc", "solo", 0)}
        svss = ("svss", (("cc", "solo", 0), 3), 2)
        mw = ("mw", svss, 1, 4, "md")
        for sid in (svss, mw):
            group, slot = svec_split(sid, families)
            assert svec_sid(group, slot) == sid
        # Non-family tags are never mistaken for slots.
        assert svec_split(("svss", ("solo-svss", 0), 1), families) is None
        assert svec_split(("mw", ("solo", 0), 1, 2, "dm"), families) is None


CSID = ("cc", "solo", 0)


def mw_group(dealer, j, l, role="md", csid=CSID):
    return (SVEC_MW, csid, dealer, j, l, role)


def spy_broadcasts(stack, pid):
    """Record ``(bid, value)`` of every RB ``pid`` originates."""
    sent = []
    manager = stack.broadcasts[pid]
    original = manager.broadcast

    def spy(bid, value):
        sent.append((bid, value))
        original(bid, value)

    manager.broadcast = spy  # instance attribute shadows the method
    return sent


class TestRbFold:
    """One reliable broadcast per (step, origin): the send side folds the
    step's RB vectors under one bid, bounded; the receive side validates
    and ingests item by item (what happens inside one item is
    ``TestSlotVectorUnpack``'s)."""

    def make(self):
        from repro.core.api import build_stack

        stack = build_stack(SystemConfig(n=4, seed=0), scheduler=FifoScheduler())
        return stack, stack.vss[1]

    @staticmethod
    def sender(mgr, group, slot):
        """The instance whose session is ``slot`` of ``group``."""
        return mgr._ensure_mw(svec_sid(group, slot))

    def spy_vectors(self, mgr, after=None):
        calls = []

        def spy(src, group, kind, slots, bodies):
            calls.append((src, group, kind, slots, bodies))
            if after is not None and len(calls) == after[0]:
                after[1](mgr.host)

        mgr.ingest_vector = spy  # instance attribute shadows the method
        return calls

    # -- send side -----------------------------------------------------
    def test_step_folds_into_one_rb_in_first_touched_order(self):
        stack, mgr = self.make()
        mgr.mux.register_family(CSID)
        sent = spy_broadcasts(stack, 1)
        a, b = mw_group(1, 1, 2), mw_group(1, 1, 3)
        with stack.runtime.coalescing_step():
            mgr.rb_broadcast(self.sender(mgr, a, 1), "ack", None)
            mgr.rb_broadcast(self.sender(mgr, b, 2), "L", (1, 2, 3))
            mgr.rb_broadcast(self.sender(mgr, a, 2), "ack", None)
            mgr.rb_broadcast(self.sender(mgr, a, 1), "ok", None)
        assert sent == [
            (
                (1, SVEC_TAG, 0),
                (
                    SVEC_TAG,
                    (
                        ("ack", a, (1, 2), (None, None)),
                        ("L", b, (2,), ((1, 2, 3),)),  # one-slot vector: an item
                        ("ok", a, (1,), (None,)),
                    ),
                ),
            )
        ]
        assert (stack.runtime.svec_packed, stack.runtime.svec_slots) == (3, 4)

    def test_siblings_share_one_lane_until_the_last_release(self):
        stack, mgr = self.make()
        mgr.mux.register_family(CSID)
        sent = spy_broadcasts(stack, 1)
        a = mw_group(1, 1, 2)
        insts = [self.sender(mgr, a, slot) for slot in (1, 2, 3)]
        with stack.runtime.coalescing_step():
            for inst in insts:
                mgr.rb_broadcast(inst, "ack", None)
        lane = insts[0].lane
        assert lane.group == a and all(inst.lane is lane for inst in insts)
        [(_, (_, fold))] = sent
        assert fold[0][1] is lane.group  # the fold carries the one group object
        assert mgr._lanes == {a: lane} and lane == dict(zip((1, 2, 3), insts))
        for inst in insts[:2]:
            inst.release()
        assert mgr._lanes == {a: lane} and lane == {3: insts[2]}
        insts[2].release()
        insts[2].release()  # a second release of one session is a no-op
        assert mgr._lanes == {} and all(inst.lane is None for inst in insts)

    def test_what_never_packed_still_does_not(self):
        stack, mgr = self.make()
        sent = spy_broadcasts(stack, 1)
        a = mw_group(1, 1, 2)
        inst = self.sender(mgr, a, 3)
        sid = inst.sid
        plain = ((1, "vss", sid, "ack"), ("vss", sid, "ack", None))
        mgr.rb_broadcast(inst, "ack", None)  # no family registered yet
        mgr.mux.register_family(CSID)
        mgr.rb_broadcast(inst, "ack", None)  # outside any step
        with stack.runtime.coalescing_step():
            mgr.rb_broadcast(inst, "ack", None)  # a lone single-slot message
        mgr.host.outbound_filter = lambda dst, payload: payload
        with stack.runtime.coalescing_step():
            mgr.rb_broadcast(inst, "ack", None)  # filtered (corrupt) host
            mgr.rb_broadcast(self.sender(mgr, a, 4), "ack", None)
        assert sent[:4] == [plain] * 4 and len(sent) == 5
        assert stack.runtime.svec_packed == 0

    def test_step_over_the_bound_splits_in_send_order(self):
        stack, mgr = self.make()
        mgr.mux.register_family(CSID)
        sent = spy_broadcasts(stack, 1)
        groups = [mw_group(1, j, l) for j in range(1, 5) for l in range(1, 5)]
        want = []
        with stack.runtime.coalescing_step():
            for kind in ("ack", "ok", "rv"):
                for group in groups[: 14 if kind == "rv" else 16]:
                    body = ((1, 7),) if kind == "rv" else None
                    for slot in (1, 2, 3):
                        mgr.rb_broadcast(self.sender(mgr, group, slot), kind, body)
                    want.append((kind, group, (1, 2, 3), (body,) * 3))
        assert len(want) == 46 == 2 * FOLD_MAX_VECTORS + 14
        assert [bid for bid, _ in sent] == [(1, SVEC_TAG, seq) for seq in (0, 1, 2)]
        assert [len(value[1]) for _, value in sent] == [16, 16, 14]
        assert [item for _, value in sent for item in value[1]] == want

    # -- receive side --------------------------------------------------
    def test_forged_fold_drops_only_the_bad_piece(self):
        _, mgr = self.make()
        calls = self.spy_vectors(mgr)
        a, b = mw_group(2, 2, 3), (SVEC_SVSS, CSID, 2)
        good_a = ("ack", a, (1, 2), (None, None))
        good_b = ("G", b, (1,), (((1, 2, 3), ()),))
        fold = (
            good_a,
            "junk",  # malformed items
            ("ack", a),
            ("ack", a, (1,)),  # arity 3
            ("ack", a, ((1, None),)),  # the pair shape
            ("ack", a, (1,), (None,), "extra"),  # arity 5
            ("ack", a, [1], (None,)),  # a list column
            ("ack", a, (1,), [None]),
            ("ack", a, (1, 2), (None,)),  # unequal columns
            ("cnf", a, (1,), (5,)),  # private kind in an RB fold
            (SVEC_TAG, (good_a,)),  # nested fold
            (SVEC_TAG, a, (good_a,), ()),
            ("ack", (SVEC_MW, [CSID], 2, 2, 3, "md"), (1,), (None,)),  # unhashable
            ("ack", "nope", (1,), (None,)),
            good_b,
        )
        mgr.mux.on_rb(2, (SVEC_TAG, fold))
        assert calls == [(2, a, "ack", *good_a[2:]), (2, b, "G", *good_b[2:])]
        # Bad envelopes of the fold itself, and the pre-fold shapes.
        del calls[:]
        mgr.mux.on_rb(2, (SVEC_TAG,))
        mgr.mux.on_rb(2, (SVEC_TAG, [good_a]))
        mgr.mux.on_rb(2, (SVEC_TAG, (good_a,), "extra"))
        mgr.mux.on_rb(2, (SVEC_TAG, "ack", a, good_a[2]))
        assert calls == []

    def test_forged_fold_grants_nothing_through_real_ingestion(self):
        """No spy: bad slots inside a good item still degrade alone."""
        _, mgr = self.make()
        a = mw_group(2, 2, 3)
        slots, bodies = (1, "junk", [1], 3), (None, None, None, None)
        mgr.mux.on_rb(2, (SVEC_TAG, (("ack", a, slots, bodies), ("cnf", a, (2,), (5,)))))
        assert set(mgr.mw) == {svec_sid(a, 1), svec_sid(a, 3)}

    @pytest.mark.parametrize(
        "fault",
        [
            lambda host: setattr(host, "crashed", True),
            # crash -> recover inside the item: alive again, other epoch
            lambda host: setattr(host, "crash_epoch", host.crash_epoch + 1),
        ],
        ids=["crash", "crash-recover"],
    )
    def test_crash_mid_fold_drops_the_tail(self, fault):
        _, mgr = self.make()
        calls = self.spy_vectors(mgr, after=(2, fault))
        items = tuple(
            ("ack", mw_group(2, 2, l), (1, 2), (None, None)) for l in (1, 2, 3, 4)
        )
        mgr.mux.on_rb(2, (SVEC_TAG, items))
        assert [call[1] for call in calls] == [items[0][1], items[1][1]]


class TestFoldEndToEnd:
    """The fold against the packing-vetoed run, and what it leaves behind."""

    #: (n, seed) -> events_dispatched of the parent (per-vector RB) commit.
    PARENT_EVENTS = {(4, 1000): 9_816, (5, 1000): 28_640}

    @pytest.mark.parametrize("n,seed", sorted(PARENT_EVENTS))
    def test_fold_matches_the_slot_split_run(self, n, seed):
        fold, stack_fold = flip(n, seed)
        split, stack_split = flip(n, seed, split=SlotSplittingScheduler)
        assert split.svec_packed == 0 and fold.svec_packed > 0
        assert fold.outputs == split.outputs
        assert coin_justifiers(stack_fold) == coin_justifiers(stack_split)
        # The step's vectors already shared their envelopes hop for hop.
        assert fold.events_dispatched == self.PARENT_EVENTS[n, seed]
        assert 10 * fold.logical_messages < split.logical_messages

    def test_every_delivered_vector_is_two_equal_columns(self):
        """On the wire a vector is a slot tuple and a body tuple of one
        length — private svecs and fold items alike; no pair anywhere."""
        from repro.core.api import build_stack, make_coins
        from repro.sim.process import ENVELOPE_TAG

        stack = build_stack(SystemConfig(n=4, seed=1000), scheduler=FifoScheduler())
        coins = make_coins(stack, "svss")
        seen = {"private": 0, "fold": 0}

        def vectors(payload):
            tag = payload[0]
            if tag == ENVELOPE_TAG:
                for message in payload[1]:
                    yield from vectors(message)
            elif tag == SVEC_TAG:
                seen["private"] += 1
                yield payload[3:]
            elif tag in ("b1", "b2", "b3") and payload[2][0] == SVEC_TAG:
                for item in payload[2][1]:
                    seen["fold"] += 1
                    yield item[2:]

        def tap(src, dst, payload):
            for columns in vectors(payload):
                assert len(columns) == 2
                slots, bodies = columns
                assert type(slots) is tuple and type(bodies) is tuple
                assert len(slots) == len(bodies) >= 1
                assert set(map(type, slots)) == {int}

        stack.runtime.delivery_tap = tap
        outputs = {}
        with stack.runtime.coalescing_step():
            for pid in stack.config.pids:
                coins[pid].join(CSID)
                coins[pid].get(CSID, lambda v, pid=pid: outputs.setdefault(pid, v))
                coins[pid].release(CSID)
        stack.runtime.run_to_quiescence()
        assert len(outputs) == 4 and len(set(outputs.values())) == 1
        assert seen["private"] > 0 and seen["fold"] > 0

    def test_one_process_holds_few_bids_after_a_coin(self):
        _, stack = flip(4, 1000)
        for pid in stack.config.pids:
            assert len(stack.broadcasts[pid]._instances) <= 300  # parent: 1454

    def test_every_fold_stays_far_under_the_frame_body(self, monkeypatch):
        """An RB value is atomic on the wire (one DATA frame): bound the
        encoded size of a full fold of worst-case bodies up to n = 13, and
        check real coins stay under that bound."""
        from repro.net.codec import MAX_FRAME_BODY, encode_value

        def worst_fold(n):
            pids = tuple(range(1, n + 1))
            prime = SystemConfig(n=n).prime
            bodies = {
                "G": (pids, tuple((j, pids) for j in pids)),
                "rv": tuple((j, prime - 1) for j in pids),
            }
            kind = max(bodies, key=lambda k: len(encode_value(bodies[k])))
            csid = ("cc", ("aba", "instance-name", 10**6), 10**6)
            vector = (kind, mw_group(n, n, n, csid=csid), pids, (bodies[kind],) * n)
            return (SVEC_TAG, (vector,) * FOLD_MAX_VECTORS)

        for n in (4, 5, 7, 10, 13):
            wire = ("b3", (n, SVEC_TAG, 10**9), worst_fold(n))
            assert 32 * len(encode_value(wire)) < MAX_FRAME_BODY, n

        from repro.broadcast.manager import BroadcastManager

        folds = []
        original = BroadcastManager.broadcast

        def spy(self, bid, value):
            if value[0] == SVEC_TAG:
                folds.append(value)
            original(self, bid, value)

        monkeypatch.setattr(BroadcastManager, "broadcast", spy)
        for n in (4, 5):
            del folds[:]
            flip(n, 3, quiesce=False)
            assert max(len(value[1]) for value in folds) == FOLD_MAX_VECTORS
            largest = max(len(encode_value(value)) for value in folds)
            assert largest <= len(encode_value(worst_fold(n)))
            if n == 4:  # what the 4 KiB-frame socket test relies on
                assert largest < 3072


class SlotTargetedDealer(ByzantineBehavior):
    """Deals corrupted SVSS rows in exactly one coin slot (deterministic)."""

    def __init__(self, slot: int):
        self.slot = slot

    def corrupt_svss_rows(self, session, dst, row, col, prime):
        tag = session[1]
        if isinstance(tag, tuple) and len(tag) == 2 and tag[1] == self.slot:
            row = list(row)
            row[0] = (row[0] + 1) % prime
        return row, col


class TestAdversarialContract:
    """Corrupt senders keep the per-slot surface; per-session semantics
    survive aggregation."""

    @pytest.mark.parametrize("seed", range(2))
    def test_slot_mutator_corrupts_one_session_only(self, seed):
        """A dealer corrupting exactly one slot inside its batch: the
        sibling slots (and the whole coin) are untouched, and the run is
        bit-identical vectors packed / slots split — the corrupt sender's
        messages travel per session in both."""
        adversary = lambda: Adversary({4: SlotTargetedDealer(2)})  # noqa: E731
        off, stack_off = flip(4, seed, adversary=adversary(), split=per_message)
        on, stack_on = flip(4, seed, adversary=adversary(), split=EnvelopeSplittingScheduler)
        nonfaulty = stack_off.nonfaulty()
        assert set(off.outputs) >= set(nonfaulty)
        assert on.outputs == off.outputs
        assert coin_justifiers(stack_on) == coin_justifiers(stack_off)
        assert on.svec_packed > 0  # honest parties still aggregated

    def test_byzantine_sender_never_packs(self):
        """Hosts with behaviours/outbound filters emit per-session
        messages, so mutators act on logical slot messages (and a general
        mutator cannot break coin liveness under aggregation)."""
        import random

        adversary = Adversary({4: MutatingBehavior(random.Random(3), rate=0.3)})
        result, stack = flip(4, 3, adversary=adversary)
        nonfaulty = stack.nonfaulty()
        assert set(result.outputs) >= set(nonfaulty)
        assert result.svec_packed > 0

    def test_slot_splitting_scheduler_replays_per_session_golden(self):
        """splits_slots vetoes packing: the run IS the one ``svec=False``
        ran when the keyword existed, bit for bit (events, wire pushes,
        outputs, justifiers) — the seed-5 FIFO coin of the transcript that
        keyword wrote (``tests/test_aggregation_equiv.py`` replays all of it)."""
        from test_aggregation_equiv import GOLDEN, surviving

        with open(GOLDEN) as handle:
            golden = json.load(handle)
        for mode in ("plain", "coalesce"):
            assert golden[mode]["generated_by"]["svec"] is False
            record = surviving(mode, "fifo", "coin-n4")
            assert record["svec_packed"] == 0 and record["svec_slots"] == 0
            assert record == golden[mode]["records"]["fifo"]["coin-n4"]

    def test_splitting_wrappers_compose_either_way(self):
        inner = SlotSplittingScheduler(EnvelopeSplittingScheduler(FifoScheduler()))
        outer = EnvelopeSplittingScheduler(SlotSplittingScheduler(FifoScheduler()))
        for sched in (inner, outer):
            assert sched.splits_envelopes and sched.splits_slots
            assert sched.fixed_delay() == 1.0
