"""Robustness of the VSS manager's ingestion path against byzantine
garbage, plus the delayed-queue release machinery."""

from __future__ import annotations

import pytest

from repro.adversary.controller import Adversary
from repro.config import SystemConfig
from repro.core.api import build_stack
from repro.core.manager import VALUE_KINDS, CallbackWatcher
from repro.core.sessions import SVEC_MW, SVEC_SVSS, mw_session, svec_sid, svss_session
from repro.core.vectormux import SVEC_TAG
from repro.errors import ProtocolError

from test_shunning import WithholdingReconstructor, quiescent_coin


def make_stack(seed=0):
    return build_stack(SystemConfig(n=4, seed=seed))


#: A dealer's share columns ``[sender][monitor - 1]`` with f_2(3) = 9: the DMM
#: reads the expected value off them, as off ``MWSVSSInstance._deal_rows``.
F2_OF_3_IS_9 = [{1: 9} if sender == 3 else {} for sender in range(5)]


class TestGarbageIngestion:
    """Raw hostile payloads must never crash or corrupt honest state."""

    def _flood(self, stack, payloads):
        host = stack.runtime.host(2)
        for payload in payloads:
            host.send_all(payload, "vss")
        stack.runtime.run_to_quiescence()

    def test_malformed_private_vss_messages(self):
        stack = make_stack()
        sid = mw_session(("solo", 0), 1, 2, "dm")
        self._flood(
            stack,
            [
                ("v",),  # too short
                ("v", sid, "shl"),  # missing body
                ("v", sid, "shl", "not-a-tuple"),
                ("v", sid, "shl", (1, 2)),  # wrong arity
                ("v", sid, "shl", (1, 2, 3, "x")),  # non-element
                ("v", "bogus-sid", "shl", (1, 2, 3, 4)),
                ("v", ("mw", 0, 99, 2, "dm"), "shl", (1, 2, 3, 4)),  # bad pid
                ("v", sid, 42, (1, 2, 3, 4)),  # non-string kind
                ("v", sid, "unknown-kind", (1, 2, 3, 4)),
            ],
        )
        # the instance may exist (first contact) but holds no share data
        inst = stack.vss[1].mw.get(sid)
        assert inst is None or inst.share_vector is None

    def test_malformed_svss_messages(self):
        stack = make_stack()
        sid = svss_session(("x", 0), 1)
        self._flood(
            stack,
            [
                ("v", sid, "rows", "garbage"),
                ("v", sid, "rows", ((1, 2), (3,))),  # wrong arity
                ("v", sid, "G", ((1, 2, 3), ())),  # private G is ignored kind
            ],
        )
        inst = stack.vss[1].svss.get(sid)
        assert inst is None or inst.g is None

    def test_wrong_sender_messages_ignored(self):
        """Share vectors claiming to come from a non-dealer are dropped."""
        stack = make_stack()
        sid = mw_session(("solo", 0), 1, 2, "dm")
        host = stack.runtime.host(3)  # not the dealer
        host.send_all(("v", sid, "shl", (1, 2, 3, 4)), "vss")
        host.send_all(("v", sid, "mon", (1, 2)), "vss")
        stack.runtime.run_to_quiescence()
        for pid in (1, 2, 4):
            inst = stack.vss[pid].mw.get(sid)
            assert inst is None or inst.share_vector is None

    def test_rb_only_kinds_rejected_on_private_channel(self):
        """A faulty dealer must not equivocate membership sets by sending
        them privately instead of via reliable broadcast."""
        stack = make_stack()
        svss_sid = svss_session(("x", 0), 2)
        mw_sid = mw_session(("solo", 0), 2, 3, "dm")
        host = stack.runtime.host(2)  # the dealer itself, spoofing
        host.send_all(("v", svss_sid, "G", ((1, 2, 3), ((1, (2, 3, 4)),))), "vss")
        host.send_all(("v", mw_sid, "M", (1, 2, 3)), "vss")
        host.send_all(("v", mw_sid, "ok", None), "vss")
        host.send_all(("v", mw_sid, "rv", ((1, 5),)), "vss")
        stack.runtime.run_to_quiescence()
        for pid in stack.config.pids:
            svss_inst = stack.vss[pid].svss.get(svss_sid)
            assert svss_inst is None or svss_inst.G_hat is None
            mw_inst = stack.vss[pid].mw.get(mw_sid)
            if mw_inst is not None:
                assert mw_inst.M_hat is None
                assert not mw_inst.ok_received
                assert not mw_inst.rv_batches

    def test_private_kinds_rejected_via_broadcast(self):
        """Share vectors travel on private channels only; broadcasting one
        must not populate anyone's state."""
        stack = make_stack()
        sid = mw_session(("solo", 0), 2, 3, "dm")
        stack.broadcasts[2].broadcast(
            (2, "vss", sid, "shl"), ("vss", sid, "shl", (1, 2, 3, 4))
        )
        stack.runtime.run_to_quiescence()
        for pid in stack.config.pids:
            inst = stack.vss[pid].mw.get(sid)
            assert inst is None or inst.share_vector is None

    def test_honest_session_survives_garbage_storm(self):
        stack = make_stack(seed=3)
        sid = mw_session(("solo", 7), 1, 2, "dm")
        outputs = {}
        for pid in stack.config.pids:
            stack.vss[pid].register_watcher(
                ("solo", 7),
                CallbackWatcher(
                    on_mw_output=lambda s, v, pid=pid: outputs.setdefault(pid, v)
                ),
            )
        stack.vss[1].mw_share(sid, 5)
        stack.vss[2].mw_moderate(sid, 5)
        # byzantine garbage mid-flight, aimed at the same session
        host = stack.runtime.host(4)
        for i in range(20):
            host.send_all(("v", sid, "cnf", f"garbage-{i}"), "vss")
            host.send_all(("v", sid, "rv", ((1, "x"),)), "vss")
        stack.runtime.run_to_quiescence()
        for pid in stack.config.pids:
            stack.vss[pid].mw_begin_reconstruct(sid)
        stack.runtime.run_to_quiescence()
        assert all(outputs[p] == 5 for p in stack.config.pids)


class TestWatcherRegistry:
    def test_duplicate_watcher_rejected(self):
        stack = make_stack()
        stack.vss[1].register_watcher("k", CallbackWatcher())
        with pytest.raises(ProtocolError):
            stack.vss[1].register_watcher("k", CallbackWatcher())

    def test_callback_watcher_defaults_are_noops(self):
        watcher = CallbackWatcher()
        watcher.on_mw_share_complete(("sid",))
        watcher.on_mw_output(("sid",), 1)
        watcher.on_svss_share_complete(("sid",))
        watcher.on_svss_output(("sid",), 1)

    def test_an_svss_output_stamps_nothing(self):
        """Only an MW-SVSS reconstruct moves the session clock: ``→_i`` never
        reads an SVSS session's completion."""
        mgr = make_stack().vss[1]
        mgr.register_watcher("k", CallbackWatcher())
        mgr.notify_svss_output(svss_session("k", 1), 5)
        assert (mgr.clock.count, mgr.clock.completed) == (0, {})


class TestValueKinds:
    def test_value_kinds_cover_all_data_messages(self):
        """Every kind that carries polynomial data is filter-scoped; every
        membership kind is not."""
        assert {"shl", "mon", "mod", "cnf", "ms", "rv", "rows"} == set(VALUE_KINDS)
        for membership in ("ack", "L", "M", "ok", "G"):
            assert membership not in VALUE_KINDS

    def test_membership_flows_from_suspected_sender(self):
        """ack/L/M broadcasts flow even when a sender's value messages are
        delayed — the liveness correction documented at ``VALUE_KINDS``."""
        from repro.core.dmm import DELAY, FORWARD

        stack = make_stack()
        mgr = stack.vss[1]
        sid_old = mw_session(("solo", 0), 1, 2, "dm")
        sid_new = mw_session(("solo", 1), 1, 2, "dm")
        mgr._ensure_mw(sid_old)
        mgr.dmm.expect_ack(3, sid_old, monitor=2, rows=F2_OF_3_IS_9, batch=None)
        mgr.clock.note_complete(sid_old)
        mgr.dmm.on_session_reconstructed(sid_old)
        mgr._ensure_mw(sid_new)
        # value message from 3 in the new session: delayed
        assert mgr.dmm.filter_verdict(3, mgr.mw[sid_new].begun) == DELAY
        # but the ingestion path only applies that verdict to VALUE_KINDS;
        # feed an ack through _ingest and verify it reaches the instance
        mgr._ingest(3, sid_new, "ack", None)
        assert mgr.mw[sid_new].acks == 1 << 3
        # while a cnf from 3 is parked, not processed
        mgr._ingest(3, sid_new, "cnf", 5)
        assert not mgr.mw[sid_new].heard >> 3 & 1
        assert len(mgr._delayed) == 1

    def test_parked_message_released_after_debt_paid(self):
        stack = make_stack()
        mgr = stack.vss[1]
        sid_old = mw_session(("solo", 0), 1, 2, "dm")
        sid_new = mw_session(("solo", 1), 1, 2, "dm")
        mgr._ensure_mw(sid_old)
        mgr.dmm.expect_ack(3, sid_old, monitor=2, rows=F2_OF_3_IS_9, batch=None)
        mgr.clock.note_complete(sid_old)
        mgr.dmm.on_session_reconstructed(sid_old)
        mgr._ensure_mw(sid_new)
        mgr._ingest(3, sid_new, "cnf", 5)
        assert len(mgr._delayed) == 1
        # the owed reconstruct broadcast arrives and matches
        mgr._ingest(3, sid_old, "rv", ((2, 9),))
        assert len(mgr._delayed) == 0
        # heard before f̂_j: kept as a pair until ``mon`` arrives
        assert mgr.mw[sid_new]._early_confirms == ((3, 5),)

    def test_parked_message_discarded_after_conviction(self):
        stack = make_stack()
        mgr = stack.vss[1]
        sid_old = mw_session(("solo", 0), 1, 2, "dm")
        sid_new = mw_session(("solo", 1), 1, 2, "dm")
        mgr._ensure_mw(sid_old)
        mgr.dmm.expect_ack(3, sid_old, monitor=2, rows=F2_OF_3_IS_9, batch=None)
        mgr.clock.note_complete(sid_old)
        mgr.dmm.on_session_reconstructed(sid_old)
        mgr._ensure_mw(sid_new)
        mgr._ingest(3, sid_new, "cnf", 5)
        # the owed broadcast arrives and CONFLICTS: conviction
        mgr._ingest(3, sid_old, "rv", ((2, 8),))
        assert 3 in mgr.dmm.D
        assert len(mgr._delayed) == 0
        assert not mgr.mw[sid_new].heard >> 3 & 1


class TestReleasedSessionsRejectReplays:
    """A finished sharing leaves the tables for the tombstone: a late message
    for it takes its DMM verdict and is dropped, creating nothing; the only
    thing a late ``rv`` still reaches is the DMM, while the session owes."""

    CSID = ("cc", "solo", 0)

    def snapshot(self, mgr):
        return (
            len(mgr.mw),
            len(mgr.svss),
            dict(mgr._pins),
            dict(mgr.clock.completed),
            set(mgr.dmm._closed_sessions),
            dict(mgr._delayed),
            dict(mgr._lanes),
            dict(mgr.dmm._ledgers),
            set(mgr.dmm.D),
        )

    def test_replays_and_forged_vectors_create_no_state(self):
        stack = quiescent_coin(4, 0)
        mgr = stack.vss[1]
        before = self.snapshot(mgr)
        assert before == (0, 0, {}, {}, set(), {}, {}, {}, set())
        svss_sid = svss_session((self.CSID, 1), 2)
        mw_sid = mw_session(svss_sid, 2, 3, "dm")
        assert mgr.clock.finished(mw_sid) and mgr.clock.finished(svss_sid)
        runtime = stack.runtime
        verdicts = runtime.dmm_verdict_calls
        row = (1, 2)
        for src in (2, 3, 4):
            mgr._on_private(src, ("v", mw_sid, "cnf", 5))
            mgr._on_private(src, ("v", mw_sid, "shl", (1, 2, 3, 4)))
            mgr._on_private(src, ("v", svss_sid, "rows", (row, row)))
            mgr._on_rb(src, ("vss", mw_sid, "ack", None))
            mgr._on_rb(src, ("vss", mw_sid, "L", (1, 2, 3)))
            mgr._on_rb(src, ("vss", mw_sid, "rv", ((1, 7), (2, 8))))
            mgr._on_rb(src, ("vss", svss_sid, "G", ((1, 2, 3), ())))
            # forged slot-vectors for the retired groups, all four slots
            mw_group = (SVEC_MW, self.CSID, 2, 2, 3, "dm")
            slots = (1, 2, 3, 4)
            mgr.mux.on_private(src, (SVEC_TAG, "cnf", mw_group, slots, (5,) * 4))
            rv = ("rv", mw_group, slots, (((1, 7),),) * 4)
            acks = ("ack", mw_group, slots, (None,) * 4)
            mgr.mux.on_rb(src, (SVEC_TAG, (rv, acks)))
            rows = (SVEC_TAG, "rows", (SVEC_SVSS, self.CSID, 2), slots, ((row, row),) * 4)
            mgr.mux.on_private(src, rows)
        # Each value message took its one verdict (four per message, one
        # per vector: cnf, rv, rows), all FORWARD — nothing parked.
        assert runtime.dmm_verdict_calls - verdicts == 3 * (4 + 3)
        stack.runtime.run_to_quiescence()  # and nothing was sent in reply
        assert self.snapshot(mgr) == before

    def test_a_vector_for_retired_slots_from_an_armed_sender_is_forwarded(self):
        """A retired session reads as begun long ago: no debt precedes it."""
        from repro.core.dmm import DELAY, FORWARD

        culprit = 2
        stack = quiescent_coin(
            4, 0, adversary=Adversary({culprit: WithholdingReconstructor()})
        )
        mgr = next(
            stack.vss[pid]
            for pid in stack.nonfaulty()
            if stack.vss[pid].dmm._armed_min_done.get(culprit) is not None
        )
        dmm, slots = mgr.dmm, (1, 2, 3, 4)

        def stamps(group):
            return [mgr._begun(svec_sid(group, slot)) for slot in slots]

        retired = (SVEC_MW, self.CSID, 3, 3, 4, "dm")
        assert stamps(retired) == [None] * 4
        assert dmm.filter_verdict_group(culprit, stamps(retired)) == FORWARD
        fresh = (SVEC_MW, ("cc", "later", 0), 3, 3, 4, "dm")
        assert stamps(fresh) == [mgr.clock.count] * 4  # not begun yet
        assert dmm.filter_verdict_group(culprit, stamps(fresh)) == DELAY
        before = self.snapshot(mgr)
        mgr.mux.on_private(culprit, (SVEC_TAG, "cnf", retired, slots, (5,) * 4))
        assert self.snapshot(mgr) == before

    def test_replayed_value_vectors_for_a_released_group_decode_nothing(self, monkeypatch):
        """A ``mon`` / ``mod`` / ``rows`` body is decoded by the instance
        that consumes it: a dealer replaying them for a finished group buys
        no interpolation and no lane."""
        from repro.core import mwsvss, svss

        stack = quiescent_coin(4, 0)
        calls = []
        for module in (mwsvss, svss):
            monkeypatch.setattr(module, "value_rows", lambda *args: calls.append(args))
        row = (1, 2)
        for moderator in (1, 3):
            mgr = stack.vss[moderator]
            group = (SVEC_MW, self.CSID, 2, 2, moderator, "dm")
            assert group not in mgr._lanes
            slots = (1, 2, 3, 4)
            for kind in ("mon", "mod"):
                mgr.mux.on_private(2, (SVEC_TAG, kind, group, slots, (row,) * 4))
            rows = (SVEC_TAG, "rows", (SVEC_SVSS, self.CSID, 2), slots, ((row, row),) * 4)
            mgr.mux.on_private(2, rows)
            assert not mgr._lanes
        assert calls == []

    def test_conflicting_late_rv_for_a_released_session_still_convicts(self):
        culprit = 2
        stack = quiescent_coin(
            4, 0, adversary=Adversary({culprit: WithholdingReconstructor()})
        )
        mgr = stack.vss[1]
        assert mgr.mw == {} and mgr.svss == {}
        def owed_ack(ledger):
            """The lowest monitor the culprit owes, and the value expected."""
            monitor = (ledger.ack[culprit] & -ledger.ack[culprit]).bit_length() - 1
            return monitor, ledger.ack_rows[culprit][monitor - 1]

        sid, ledger = next(iter(mgr.dmm._ledgers.items()))
        assert [s for s, monitors in enumerate(ledger.ack) if monitors] == [culprit]
        assert sid in mgr.dmm._armed[culprit]  # a debt: it gates the culprit
        # Retired, but its debt keeps the completed stamp the delay rule reads.
        assert mgr.clock.finished(sid) and sid in mgr.clock.completed
        monitor, value = owed_ack(ledger)
        # The matching value pays that part of the debt ...
        mgr._on_rb(culprit, ("vss", sid, "rv", ((monitor, value),)))
        assert culprit not in mgr.dmm.D
        assert not ledger.ack[culprit] >> monitor & 1
        # ... a conflicting one for another retired session convicts.
        sid, ledger = next(s for s in mgr.dmm._ledgers.items() if any(s[1].ack or ()))
        monitor, value = owed_ack(ledger)
        wrong = (value + 1) % stack.config.prime
        mgr._on_rb(culprit, ("vss", sid, "rv", ((monitor, wrong),)))
        assert culprit in mgr.dmm.D
        assert not mgr.dmm.has_expectations(culprit)
        # The conviction dropped the last debts, and their stamps with them.
        assert mgr.mw == {} and not mgr.dmm._ledgers and not mgr.clock.completed
