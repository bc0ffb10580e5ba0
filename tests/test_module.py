"""The ProtocolModule lifecycle and per-instance dispatch slots.

Covers the module contract (attach wires, close releases, every shipped
protocol component implements it), the bounded instance demux at host and
broadcast level — including registration/teardown mid-run — and the
incremental ABA vote validation against the fixpoint.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from reference.aba_fixpoint import fixpoint_accepted

from repro.broadcast.manager import BroadcastManager
from repro.config import SystemConfig
from repro.core.agreement import ABAProcess
from repro.core.api import build_stack, make_coins, run_byzantine_agreement_batch
from repro.core.coin import CommonCoinModule, LocalCoin, SharedCoinGate
from repro.core.manager import VSSManager
from repro.errors import ProtocolError, SimulationError
from repro.net.transport import NetworkNode
from repro.protocols.benor import BenOrProcess
from repro.sim.module import ProtocolModule, RuntimeABC
from repro.sim.process import InstanceSlots
from repro.sim.runtime import Runtime
from repro.sim.scheduler import FifoScheduler
from repro.sim.window import StepWindow


def make_rt(n=4, seed=0, **kw):
    return Runtime(SystemConfig(n=n, seed=seed), **kw)


class TestModuleContract:
    """Every shipped protocol module implements the uniform lifecycle."""

    def test_all_stack_modules_are_protocol_modules(self):
        stack = build_stack(SystemConfig(n=4, seed=0))
        coins = make_coins(stack, "svss")
        aba = ABAProcess(
            stack.runtime.host(1), stack.broadcasts[1], coins[1]
        )
        modules = [stack.broadcasts[1], stack.vss[1], coins[1], aba]
        rt6 = make_rt(n=6)
        modules.append(BenOrProcess(rt6.host(1)))
        for module in modules:
            assert isinstance(module, ProtocolModule), type(module)
            assert module.attached
            assert module.host.module(module.attach_name()) is module

    def test_attach_twice_rejected(self):
        rt = make_rt()
        manager = BroadcastManager(rt.host(1))
        with pytest.raises(ProtocolError):
            manager.attach(rt.host(2))

    def test_instance_modules_attach_under_instance_name(self):
        stack = build_stack(SystemConfig(n=4, seed=0), with_vss=False)
        coin = LocalCoin(stack.config.derive_rng("local-coin", 1))
        aba = ABAProcess(
            stack.runtime.host(1), stack.broadcasts[1], coin, instance_id=("aba", 7)
        )
        assert aba.attach_name() == ("aba", ("aba", 7))
        assert stack.runtime.host(1).module(("aba", ("aba", 7))) is aba

    def test_substrate_close_releases_plain_registrations_pre_freeze(self):
        """A singleton module closed before the run releases its tags, so
        a replacement can be wired in its place."""
        rt = make_rt()
        manager = BroadcastManager(rt.host(1))
        manager.close()
        replacement = BroadcastManager(rt.host(1))  # b1/b2/b3 are free again
        assert replacement.attached

    def test_close_releases_topic_slot_and_detaches(self):
        stack = build_stack(SystemConfig(n=4, seed=0), with_vss=False)
        host = stack.runtime.host(1)
        coin = LocalCoin(stack.config.derive_rng("local-coin", 1))
        aba = ABAProcess(host, stack.broadcasts[1], coin, instance_id=("aba", 0))
        assert ("aba", 0) in stack.broadcasts[1].topic_slots("aba")
        aba.close()
        assert aba.closed
        assert ("aba", 0) not in stack.broadcasts[1].topic_slots("aba")
        assert not host.has_module(("aba", ("aba", 0)))
        # Closing again is a no-op, re-attaching is still an error.
        aba.close()
        with pytest.raises(ProtocolError):
            aba.attach(host)


RUNTIMES = {
    "sim": lambda tmp: Runtime(SystemConfig(n=4, seed=0), scheduler=FifoScheduler()),
    # Never started: no sockets, nothing to close.
    "net": lambda tmp: NetworkNode(
        SystemConfig(n=4, seed=0), 1, tmp / "node.journal"
    ).runtime,
}


@pytest.mark.parametrize("kind", sorted(RUNTIMES))
class TestRuntimeContract:
    """Both runtimes expose :class:`RuntimeABC`, and its step-window part
    is the one :class:`StepWindow` implementation — observed here through
    a captured sink, so the same assertions run on either transport."""

    @staticmethod
    def capture(runtime):
        emitted = []
        # An instance attribute shadows the sink method.
        runtime._emit = lambda src, dst, payload: emitted.append((dst, payload))
        return emitted

    def test_satisfies_runtime_abc(self, kind, tmp_path):
        runtime = RUNTIMES[kind](tmp_path)
        assert isinstance(runtime, RuntimeABC)
        assert isinstance(runtime, StepWindow)
        for shared in ("coalescing_step", "svec_defer", "_flush_svec", "_buffer"):
            assert getattr(type(runtime), shared) is getattr(StepWindow, shared)
        assert runtime.svec and runtime.coalesce
        assert not runtime.svec_buffering  # no step open

    def test_step_flushes_muxes_then_one_envelope_per_destination(
        self, kind, tmp_path
    ):
        runtime = RUNTIMES[kind](tmp_path)
        emitted = self.capture(runtime)

        class Mux:
            def flush(self):
                # A mux flush is an ordinary send inside the closing step.
                runtime.transmit(1, 2, ("vec", 7), "test")

        with runtime.coalescing_step():
            assert runtime.svec_buffering
            runtime.transmit(1, 2, ("a", 1), "test")
            runtime.svec_defer(Mux())
            runtime.transmit_all(1, ("b", 2), "test")
            assert emitted == []  # buffered until the step closes
        assert not runtime.svec_buffering
        assert emitted == [
            (2, ("env", (("a", 1), ("b", 2), ("vec", 7)))),
            (1, ("b", 2)),
            (3, ("b", 2)),
            (4, ("b", 2)),
        ]
        assert runtime.envelopes_pushed == 1
        assert runtime.payloads_coalesced == 3

    def test_flush_that_raises_partway_leaves_nothing_behind(self, kind, tmp_path):
        """The ``finally: outbox.clear()`` contract: a sink error on one
        destination must not make the next step re-send what already went
        out (or what was queued behind the failure)."""
        runtime = RUNTIMES[kind](tmp_path)
        emitted = []

        def sink(src, dst, payload):
            if dst == 2:
                raise OSError("link 2 is broken")
            emitted.append((dst, payload))

        runtime._emit = sink
        with pytest.raises(OSError):
            with runtime.coalescing_step():
                for dst in (1, 2, 3):
                    runtime.transmit(1, dst, ("m", dst), "test")
        assert emitted == [(1, ("m", 1))]
        with runtime.coalescing_step():
            runtime.transmit(1, 3, ("m", "next"), "test")
        assert emitted == [(1, ("m", 1)), (3, ("m", "next"))]


class TestInstanceSlots:
    def test_bounded_slot_table(self):
        slots = InstanceSlots("demo", limit=2)
        slots.add("a", lambda s, p: None)
        slots.add("b", lambda s, p: None)
        with pytest.raises(SimulationError):
            slots.add("c", lambda s, p: None)
        with pytest.raises(SimulationError):
            slots.add("a", lambda s, p: None)  # duplicate
        slots.remove("a")
        slots.add("c", lambda s, p: None)  # freed capacity is reusable
        with pytest.raises(SimulationError):
            slots.remove("zz")

    def test_dispatch_drops_unknown_and_garbage_instances(self):
        got = []
        slots = InstanceSlots("demo")
        slots.add("a", lambda s, p: got.append(p))
        slots.dispatch(1, ("demo", "a", 1))
        slots.dispatch(1, ("demo", "other", 1))  # unknown instance
        slots.dispatch(1, ("demo",))  # no instance position
        slots.dispatch(1, ("demo", ["unhashable"], 1))  # byzantine garbage
        assert got == [("demo", "a", 1)]

    def test_post_freeze_instance_registration_and_teardown(self):
        """Instances of a slotted tag register and close after events were
        dispatched, and the demux keeps their traffic apart."""
        rt = make_rt(n=6)
        first = {pid: BenOrProcess(rt.host(pid), instance_id="a") for pid in (1, 2)}
        rt.host(1).send(2, ("benor", "a", 1, 1, 0), "benor")
        rt.run_to_quiescence()
        late = BenOrProcess(rt.host(2), instance_id="b")
        got = rt.host(2).instance_slots("benor")
        assert set(got) == {"a", "b"}
        rt.host(1).send(2, ("benor", "b", 1, 1, 1), "benor")
        rt.run_to_quiescence()
        assert late.rounds[1].received[1] == {1: 1}
        late.close()
        assert set(rt.host(2).instance_slots("benor")) == {"a"}
        # Messages for the closed instance are dropped, not mis-routed.
        rt.host(1).send(2, ("benor", "b", 1, 1, 0), "benor")
        rt.run_to_quiescence()
        assert late.rounds[1].received[1] == {1: 1}
        # Instance "a" only ever saw its own message, never "b" traffic.
        assert first[2].rounds[1].received[1] == {1: 0}

    def test_closed_aba_instance_stops_receiving_broadcasts(self):
        stack = build_stack(SystemConfig(n=4, seed=0), with_vss=False)
        coins = {
            pid: LocalCoin(stack.config.derive_rng("local-coin", pid))
            for pid in stack.config.pids
        }
        procs = {
            pid: ABAProcess(
                stack.runtime.host(pid),
                stack.broadcasts[pid],
                coins[pid],
                instance_id=("aba", 0),
            )
            for pid in stack.config.pids
        }
        procs[2].close()
        procs[1].start(1)
        stack.runtime.run_to_quiescence()
        assert procs[3].rounds[1].received[1] == {1: 1}
        assert procs[2].rounds == {}


class TestAutoPrune:
    """Halted instances release their dispatch slots without a driver-side
    close() — the ROADMAP-named leak fix for long-lived runtimes."""

    def test_k16_batch_ends_with_zero_live_slots(self):
        """A K=16 batch run to quiescence leaves no live ABA slot at any
        host or broadcast manager: every instance halted and self-closed."""
        k, n = 16, 7
        config = SystemConfig(n=n, seed=11)
        instance_ids = tuple(("aba", i) for i in range(k))
        stack = build_stack(config, scheduler=FifoScheduler())
        decisions = {iid: {} for iid in instance_ids}
        coins = make_coins(stack, ("ideal", 1.0))
        agreements = {}
        for iid in instance_ids:
            agreements[iid] = {
                pid: ABAProcess(
                    stack.runtime.host(pid),
                    stack.broadcasts[pid],
                    coins[pid],
                    instance_id=iid,
                    on_decide=lambda v, iid=iid, pid=pid: decisions[
                        iid
                    ].setdefault(pid, v),
                )
                for pid in config.pids
            }
        for pid in config.pids:
            assert len(stack.broadcasts[pid].topic_slots("aba")) == k
        for iid in instance_ids:
            for pid in config.pids:
                agreements[iid][pid].start((pid + iid[1]) % 2)
        stack.runtime.run_to_quiescence()
        for iid in instance_ids:
            assert len(decisions[iid]) == n, iid
            for pid in config.pids:
                process = agreements[iid][pid]
                assert process.halted and process.closed, (iid, pid)
                assert not stack.runtime.host(pid).has_module(("aba", iid))
        for pid in config.pids:
            assert stack.broadcasts[pid].topic_slots("aba") == {}

    def test_benor_instances_release_host_slots_on_halt(self):
        rt = make_rt(n=6, seed=2)
        ids = ("a", "b", "c")
        procs = {
            iid: {pid: BenOrProcess(rt.host(pid), instance_id=iid) for pid in rt.config.pids}
            for iid in ids
        }
        for iid in ids:
            for pid in rt.config.pids:
                procs[iid][pid].start(1)  # unanimous: decides fast
        rt.run_to_quiescence()
        for iid in ids:
            for pid in rt.config.pids:
                assert procs[iid][pid].halted and procs[iid][pid].closed
        for pid in rt.config.pids:
            assert rt.host(pid).instance_slots("benor") == {}


class TestSharedCoinGate:
    def test_release_waits_for_all_instances(self):
        released = []

        class Recorder(LocalCoin):
            def release(self, csid):
                released.append(csid)

        gate = SharedCoinGate(Recorder(SystemConfig(n=4, seed=0).derive_rng("x")), 3)
        for k in range(3):
            gate.join(("cc", ("aba", k), 1))
        gate.release(("cc", ("aba", 0), 1))
        gate.release(("cc", ("aba", 1), 1))
        assert released == []
        gate.release(("cc", ("aba", 2), 1))
        assert released == [("cc", "aba", 1)]

    def test_retired_instances_do_not_block_later_rounds(self):
        released = []

        class Recorder(LocalCoin):
            def release(self, csid):
                released.append(csid)

        gate = SharedCoinGate(Recorder(SystemConfig(n=4, seed=0).derive_rng("x")), 2)
        # Instance 0 runs rounds 1-2 and halts; instance 1 reaches round 3.
        for r in (1, 2):
            gate.join(("cc", ("aba", 0), r))
            gate.join(("cc", ("aba", 1), r))
            gate.release(("cc", ("aba", 0), r))
            gate.release(("cc", ("aba", 1), r))
        gate.retire(2)
        gate.join(("cc", ("aba", 1), 3))
        gate.release(("cc", ("aba", 1), 3))
        assert released == [("cc", "aba", 1), ("cc", "aba", 2), ("cc", "aba", 3)]

    def test_get_translates_to_shared_session(self):
        cfg = SystemConfig(n=4, seed=0)
        coin = LocalCoin(cfg.derive_rng("local-coin", 1))
        gate = SharedCoinGate(coin, 2)
        values = {}
        gate.get(("cc", ("aba", 0), 1), lambda v: values.setdefault(0, v))
        gate.get(("cc", ("aba", 1), 1), lambda v: values.setdefault(1, v))
        assert values[0] == values[1]
        assert ("cc", "aba", 1) in coin._values


class TestIncrementalRevalidation:
    """The O(n²)-fixpoint replacement accepts the same votes in the same
    order (``conftest.aba_fixpoint_armed`` cross-checks every delivery in the
    whole suite; this drives the cascade paths directly, votes arriving
    phases-reversed)."""

    def make_aba(self, n=4):
        stack = build_stack(SystemConfig(n=n, seed=0), with_vss=False)
        coin = LocalCoin(stack.config.derive_rng("local-coin", 1))
        return ABAProcess(stack.runtime.host(1), stack.broadcasts[1], coin)

    def vote(self, aba, origin, r, phase, v):
        aba._on_rb(origin, ("aba", aba.instance_id, r, phase, v))

    def test_reverse_phase_cascade(self):
        aba = self.make_aba()  # n=4, t=1: n-t = 3
        # Phase-3 flagged (1, True) needs 3 accepted phase-2 ones.
        for origin in (1, 2, 3):
            self.vote(aba, origin, 1, 3, (1, True))
        # Phase-2 ones need 2 accepted phase-1 ones.
        for origin in (1, 2, 3):
            self.vote(aba, origin, 1, 2, 1)
        state = aba.rounds[1]
        assert state.accepted[2] == {} and state.accepted[3] == {}
        assert len(state.pending2[1]) == 3 and len(state.pending3) == 3
        self.vote(aba, 1, 1, 1, 1)
        assert state.accepted[2] == {}  # one backing vote is not enough
        self.vote(aba, 2, 1, 1, 1)  # crosses the threshold: full cascade
        assert state.accepted[2] == {1: 1, 2: 1, 3: 1}
        assert state.accepted[3] == {1: (1, True), 2: (1, True), 3: (1, True)}
        assert not state.pending2[1] and not state.pending3
        assert state.counts1 == [0, 2] and state.counts2 == [0, 3]

    def test_unflagged_phase3_waits_for_no_majority_evidence(self):
        aba = self.make_aba()  # n=4: unflagged needs counts2 >= [1, 1], total 3
        self.vote(aba, 1, 1, 3, (None, False))
        # Back both phase-2 values: two phase-1 votes per value.
        self.vote(aba, 1, 1, 1, 0)
        self.vote(aba, 2, 1, 1, 0)
        self.vote(aba, 3, 1, 1, 1)
        self.vote(aba, 4, 1, 1, 1)
        self.vote(aba, 1, 1, 2, 0)
        self.vote(aba, 2, 1, 2, 0)
        state = aba.rounds[1]
        assert state.accepted[3] == {}  # counts2 == [2, 0]: 1-side missing
        self.vote(aba, 3, 1, 2, 1)
        assert state.accepted[3] == {1: (None, False)}

    def test_matches_fixpoint_oracle(self):
        aba = self.make_aba()
        self.vote(aba, 2, 1, 2, 0)
        self.vote(aba, 3, 1, 3, (0, True))
        for origin in (1, 2, 4):
            self.vote(aba, origin, 1, 1, 0)
        state = aba.rounds[1]
        assert state.accepted == fixpoint_accepted(aba.n, aba.t, state.received)


class TestAdvanceGate:
    """A vote enters ``_maybe_advance`` only when it can move the phase
    wait: a vote of the current round that leaves the awaited phase with
    ``n - t`` accepted votes."""

    @pytest.fixture
    def entered(self, monkeypatch):
        calls = []
        real = ABAProcess._maybe_advance

        def counted(self, state):
            calls.append((self.round, self.waiting_phase))
            real(self, state)

        monkeypatch.setattr(ABAProcess, "_maybe_advance", counted)
        return calls

    def test_only_the_vote_that_fills_the_wait_enters(self, entered):
        stack = build_stack(SystemConfig(n=4, seed=0), with_vss=False)
        coin = LocalCoin(stack.config.derive_rng("local-coin", 1))
        aba = ABAProcess(stack.runtime.host(1), stack.broadcasts[1], coin)
        sent = []
        aba._broadcast = SimpleNamespace(broadcast=lambda bid, value: sent.append(value))
        aba.start(0)
        assert entered == [(1, 1)] and sent == [("aba", "aba", 1, 1, 0)]

        def vote(origin, r, phase, v):
            aba._on_rb(origin, ("aba", aba.instance_id, r, phase, v))

        vote(2, 2, 1, 0)  # round r + 1: buffered, cannot move round r's wait
        vote(1, 1, 1, 0)
        vote(2, 1, 1, 0)
        assert entered == [(1, 1)] and len(sent) == 1
        vote(3, 1, 1, 0)  # the (n - t)-th phase-1 vote
        assert entered == [(1, 1), (1, 1)]
        assert sent[-1] == ("aba", "aba", 1, 2, 0) and aba.waiting_phase == 2
        vote(4, 1, 1, 1)  # the (n - t + 1)-th: round 1 now waits on phase 2
        assert len(entered) == 2 and len(sent) == 2

    def test_same_seed_count_on_an_ideal_k16_batch(self, entered):
        """One n = 13, K = 16 FIFO ideal batch (an ``aba_ideal_k16``
        operation): 624 of its 7 280 delivered votes fill a wait, and with
        the 416 round entries that is 1 040 calls (one per vote made 7 696)."""
        n, k = 13, 16
        rows = [[(i + shift) % 2 for i in range(n)] for shift in range(k)]
        run_byzantine_agreement_batch(
            rows, SystemConfig(n=n, seed=0), coin=("ideal", 1.0), scheduler=FifoScheduler()
        )
        assert len(entered) == 1040


class TestSVSSRowMemoization:
    def test_share_rows_cached_per_recipient(self):
        stack = build_stack(SystemConfig(n=4, seed=5))
        sid = ("svss", ("memo", 0), 1)
        stack.vss[1].svss_share(sid, 17)
        dealer = stack.vss[1].svss[sid]
        assert set(dealer._row_cache) == {1, 2, 3, 4}
        row, col = dealer._row_cache[2]
        # The cache holds exactly what went on the wire, and the recipient
        # keeps it as the nodes 1..t+1 of its value rows over 0..n.
        stack.runtime.run_to_quiescence()
        recipient = stack.vss[2].svss[sid]
        nodes = slice(1, stack.config.t + 2)
        assert len(recipient.g) == len(recipient.h) == stack.config.n + 1
        assert recipient.g[nodes] == row
        assert recipient.h[nodes] == col
