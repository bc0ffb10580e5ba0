"""Transport-layer tests: :mod:`repro.net.transport` over real sockets.

Every test drives actual asyncio TCP connections on 127.0.0.1 inside
``asyncio.run`` (the repo has no async test plugin).  Time constants are
shrunk via :class:`TransportConfig` so supervision behaviour (DOWN
marking, reconnect, backpressure) is observable in test-scale wall
clock.
"""

from __future__ import annotations

import ast
import asyncio
import dataclasses
import re
import time
from pathlib import Path

import pytest

import repro.net

from repro.config import SystemConfig
from repro.core.agreement import ABAProcess
from repro.core.api import build_stack
from repro.errors import ConfigurationError, SimulationError
from repro.net.cluster import NetCluster
from repro.net.transport import (
    PEER_DOWN,
    PEER_LIVE,
    NetworkHost,
    NetworkNode,
    TransportConfig,
)
from repro.sim.module import HostABC
from repro.sim.monitor import InvariantMonitor


FAST = TransportConfig(
    connect_timeout=0.5,
    backoff_base=0.02,
    backoff_max=0.2,
    heartbeat_interval=0.1,
    idle_timeout=1.0,
    down_after=0.5,
)


def _pair(config, journal_dir, tconfig=FAST):
    """Two started nodes wired to each other directly (no chaos), each
    journaling into ``journal_dir``."""

    async def build():
        a = NetworkNode(config, 1, journal_dir / "a.journal", tconfig=tconfig)
        b = NetworkNode(config, 2, journal_dir / "b.journal", tconfig=tconfig)
        await a.start_server()
        await b.start_server()
        book = {1: ("127.0.0.1", a.port), 2: ("127.0.0.1", b.port)}
        a.set_peers(book)
        b.set_peers(book)
        a.start_peers()
        b.start_peers()
        return a, b

    return build


# ---------------------------------------------------------------------------
# HostABC conformance: the one protocol both host implementations honor.
# ---------------------------------------------------------------------------


def test_processhost_satisfies_hostabc(cfg4):
    stack = build_stack(cfg4)
    host = stack.runtime.host(1)
    assert isinstance(host, HostABC)


def test_networkhost_satisfies_hostabc(cfg4, tmp_path):
    async def main():
        node = NetworkNode(cfg4, 1, tmp_path / "node.journal")
        assert isinstance(node.host, HostABC)
        assert isinstance(node.host, NetworkHost)
        # The runtime surface modules consume must exist and be sane.
        rt = node.host.runtime
        assert rt.config is cfg4
        await node.close()

    asyncio.run(main())


# ---------------------------------------------------------------------------
# One runtime surface, one clock
# ---------------------------------------------------------------------------


def test_a_lone_node_has_a_one_node_context(cfg4, tmp_path):
    """Never started and outside any loop, a node's own context answers
    for it and for no other pid, and the monitor installs onto its
    runtime (there is no second, context-less path)."""
    node = NetworkNode(cfg4, 1, tmp_path / "node.journal")
    runtime = node.runtime
    assert runtime.host(1) is node.host
    with pytest.raises(SimulationError):
        runtime.host(2)
    monitor = InvariantMonitor()
    monitor.install(runtime)
    assert runtime.monitor is monitor
    assert node.context.monitor is monitor
    assert runtime.now == 0.0  # no loop has started the clock yet
    node.journal.close()


def test_the_net_package_reads_no_clock_but_the_loop():
    """Every net-layer time read goes through the running loop's
    ``time()``: no module of the package imports ``time``, and none calls
    ``time.monotonic()`` or ``time.time()``."""
    for path in sorted(Path(repro.net.__file__).parent.glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                assert "time" not in [a.name for a in node.names], path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "time", path.name
        assert not re.search(r"time\.(monotonic|time)\(", source), path.name


class _AheadClockLoop(asyncio.SelectorEventLoop):
    """An event loop whose ``time()`` runs 10**6 s ahead of the default's
    (``time.monotonic()``)."""

    def time(self) -> float:
        return super().time() + 10**6


@pytest.mark.slow
def test_a_coin_on_a_loop_clock_far_from_monotonic_resends_nothing(cfg4):
    """A stamp taken on one clock and compared on the other would read as
    a 10**6 s stall here: links would time out, reconnect and resend.
    On the one clock the clean coin is unanimous with 0 retransmits."""
    loop = _AheadClockLoop()
    try:
        cluster = NetCluster(cfg4)
        loop.run_until_complete(cluster.start())
        try:
            outputs = loop.run_until_complete(
                cluster.flip_coin(session=0, timeout=120)
            )
            stats = cluster.stats()
        finally:
            loop.run_until_complete(cluster.close())
    finally:
        loop.close()
    assert set(outputs) == {1, 2, 3, 4}
    assert len(set(outputs.values())) == 1
    assert set(outputs.values()) <= {0, 1}
    assert _frames_and_retransmits(stats)[1] == 0
    assert all(
        peer["reconnects"] == 1
        for node in stats["nodes"].values()
        for peer in node["peers"].values()
    )


# ---------------------------------------------------------------------------
# Reliable delivery
# ---------------------------------------------------------------------------


def test_a_node_needs_a_journal(cfg4):
    with pytest.raises(TypeError, match="journal"):
        NetworkNode(cfg4, 1)


def test_fifo_exactly_once_over_socket(tmp_path):
    config = SystemConfig(n=2, t=0, seed=1)

    async def main():
        a, b = await _pair(config, tmp_path)()
        got = []
        b.host.register_handler("m", lambda src, msg: got.append(msg))
        n_msgs = 3000
        for i in range(n_msgs):
            a.dispatch_out(2, ("m", i))
        await b.wait_for(lambda: len(got) >= n_msgs, timeout=20)
        assert got == [("m", i) for i in range(n_msgs)]
        await a.close()
        await b.close()

    asyncio.run(main())


def test_self_sends_loop_back_without_a_socket(tmp_path):
    config = SystemConfig(n=2, t=0, seed=1)

    async def main():
        a = NetworkNode(config, 1, tmp_path / "a.journal", tconfig=FAST)
        await a.start_server()
        got = []
        a.host.register_handler("m", lambda src, msg: got.append((src, msg)))
        a.dispatch_out(1, ("m", "self"))
        await a.wait_for(lambda: got, timeout=5)
        assert got == [(1, ("m", "self"))]
        await a.close()

    asyncio.run(main())


def test_reconnect_resync_after_transport_restart(tmp_path):
    """Kill one node's transport mid-stream; peers must resync via the
    epoch handshake and deliver everything queued meanwhile, in order."""
    config = SystemConfig(n=2, t=0, seed=2)

    async def main():
        a, b = await _pair(config, tmp_path)()
        got = []
        b.host.register_handler("m", lambda src, msg: got.append(msg))
        for i in range(100):
            a.dispatch_out(2, ("m", i))
        await b.wait_for(lambda: len(got) >= 100, timeout=10)

        await b.stop_transport()
        for i in range(100, 300):
            a.dispatch_out(2, ("m", i))  # queued while b is dark
        await asyncio.sleep(0.3)
        await b.restart_transport()

        await b.wait_for(lambda: len(got) >= 300, timeout=15)
        assert got == [("m", i) for i in range(300)]
        assert a.peers[2].stats.reconnects >= 2
        await a.close()
        await b.close()

    asyncio.run(main())


def test_a_welcome_retires_delivered_but_unacked_frames(tmp_path):
    """The receive cursors survive ``stop_transport``.  No ack ever leaves
    the receiver (its ACK frames are suppressed, and no heartbeat falls
    within the test), so all 20 frames are still queued at the sender
    when the receiver restarts; the WELCOME's cursor must retire them,
    not let them be delivered a second time."""
    config = SystemConfig(n=2, t=0, seed=10)
    tconfig = dataclasses.replace(
        FAST, heartbeat_interval=5.0, idle_timeout=10.0,
    )

    async def main():
        a, b = await _pair(config, tmp_path, tconfig)()
        b._ack_frame = lambda link: b""  # delivered, never acked
        got = []
        b.host.register_handler("m", lambda src, msg: got.append(msg[1]))
        for i in range(20):
            a.dispatch_out(2, ("m", i))
        await b.wait_for(lambda: len(got) >= 20, timeout=10)
        assert len(a.peers[2].queue) == 20  # nothing acked

        await b.stop_transport()
        del b._ack_frame
        await b.restart_transport()
        a.dispatch_out(2, ("m", 20))
        await b.wait_for(lambda: 20 in got, timeout=15)
        await asyncio.sleep(0.1)
        assert got == list(range(21))
        assert b.delivered == 21
        await a.close()
        await b.close()

    asyncio.run(main())


#: ``benchmarks/bench_net.py``'s link timings.
BENCH_FAST = dataclasses.replace(FAST, idle_timeout=2.0, down_after=1.0)


@pytest.mark.parametrize(
    "tconfig", [TransportConfig(), BENCH_FAST], ids=["default", "bench"]
)
def test_a_clean_link_resends_nothing_across_idle_gaps(tmp_path, tconfig):
    """Short bursts with idle gaps between them, each longer than the
    bench's heartbeat.  Only a resync after a reconnect writes a frame
    twice, and an idle clean link keeps its one connection (heartbeats
    keep it live), so nothing is ever sent twice, and the receiver's acks
    of what each read delivered drain the queue without waiting for a
    PING."""
    config = SystemConfig(n=2, t=0, seed=11)

    async def main():
        a, b = await _pair(config, tmp_path, tconfig)()
        got = []
        b.host.register_handler("m", lambda src, msg: got.append(msg[1]))
        for burst in range(4):
            for i in range(5):
                a.dispatch_out(2, ("m", 5 * burst + i))
            await asyncio.sleep(0.3)
        await b.wait_for(lambda: len(got) >= 20, timeout=10)
        await a.wait_for(lambda: not a.peers[2].queue, timeout=10)
        assert got == list(range(20))
        assert b._recv_links[1].duplicates == 0
        assert a.peers[2].stats.retransmits == 0
        assert a.peers[2].stats.reconnects == 1
        await a.close()
        await b.close()

    asyncio.run(main())


async def _until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        await asyncio.sleep(0.002)


def test_reconnect_backoff_starts_over_once_a_link_went_live(tmp_path):
    """Seven crash/reboot cycles of the receiver's transport: a session
    that went LIVE resets the sender's backoff, so the seventh relink is
    as quick as the first instead of waiting out six doublings."""
    config = SystemConfig(n=2, t=0, seed=12)

    async def main():
        a, b = await _pair(config, tmp_path, TransportConfig())()
        peer = a.peers[2]
        await _until(lambda: peer.state == PEER_LIVE)
        relinks = []
        for _ in range(7):
            await b.stop_transport()
            await _until(lambda: peer.state != PEER_LIVE)
            start = time.monotonic()
            await b.restart_transport()
            await _until(lambda: peer.state == PEER_LIVE)
            relinks.append(time.monotonic() - start)
        assert relinks[-1] < 0.5, relinks
        await a.close()
        await b.close()

    asyncio.run(main())


# ---------------------------------------------------------------------------
# Supervision: DOWN marking, counted drops, backpressure
# ---------------------------------------------------------------------------


def test_unreachable_peer_goes_down_with_counted_ring_drops(tmp_path):
    config = SystemConfig(n=2, t=0, seed=3)
    tconfig = TransportConfig(
        connect_timeout=0.2,
        backoff_base=0.02,
        backoff_max=0.1,
        down_after=0.3,
        down_queue_cap=50,
    )

    async def main():
        a = NetworkNode(config, 1, tmp_path / "a.journal", tconfig=tconfig)
        await a.start_server()
        # Peer 2's address is a port nothing listens on.
        dead = ("127.0.0.1", 1)
        a.set_peers({1: ("127.0.0.1", a.port), 2: dead})
        a.start_peers()
        await a.wait_for(
            lambda: a.peer_states().get(2) == PEER_DOWN, timeout=10
        )
        for i in range(300):
            a.dispatch_out(2, ("m", i))
        peer = a.peers[2]
        assert peer.backlog <= 51
        assert peer.stats.dropped_while_down >= 249
        assert peer.stats.went_down == 1
        # A DOWN peer must not close the node's backpressure gate.
        assert a._gate.is_set()
        await a.close()

    asyncio.run(main())


def test_backpressure_gate_blocks_pump_until_peer_goes_down(tmp_path):
    """A live-but-stalled peer past high water pauses inbound dispatch
    (honest senders block, nothing dropped); once the peer is marked DOWN
    the node degrades gracefully and the pump resumes."""
    config = SystemConfig(n=2, t=0, seed=4)
    tconfig = TransportConfig(
        connect_timeout=0.3,
        backoff_base=0.02,
        backoff_max=0.1,
        queue_high_water=50,
        queue_low_water=10,
        down_after=1.0,
    )

    async def main():
        # A sink that accepts connections and never answers: the peer
        # stays CONNECTING (handshake never completes), so its backlog
        # counts toward the gate.
        async def swallow(reader, writer):
            try:
                while await reader.read(65536):
                    pass
            finally:
                writer.close()

        sink = await asyncio.start_server(swallow, "127.0.0.1", 0)
        sink_port = sink.sockets[0].getsockname()[1]

        a = NetworkNode(config, 1, tmp_path / "a.journal", tconfig=tconfig)
        await a.start_server()
        a.set_peers({1: ("127.0.0.1", a.port), 2: ("127.0.0.1", sink_port)})
        a.start_peers()

        got = []
        a.host.register_handler("m", lambda src, msg: got.append(msg))
        for i in range(100):  # > high water
            a.dispatch_out(2, ("x", i))
        assert not a._gate.is_set()

        a.dispatch_out(1, ("m", "stuck"))  # self-send parks in the inbox
        await asyncio.sleep(0.3)
        assert got == []  # the pump is paused, not dropping

        # down_after elapses -> peer DOWN -> gate reopens -> pump drains.
        await a.wait_for(lambda: got == [("m", "stuck")], timeout=10)
        assert a.peer_states()[2] == PEER_DOWN

        await a.close()
        sink.close()
        await sink.wait_closed()

    asyncio.run(main())


# ---------------------------------------------------------------------------
# End-to-end agreement over the cluster harness
# ---------------------------------------------------------------------------


def test_agreement_over_sockets_unanimous(cfg4):
    async def main():
        cluster = NetCluster(cfg4, tconfig=FAST)
        await cluster.start()
        try:
            decisions = await cluster.run_agreement(
                [1, 1, 1, 1], coin="local", timeout=30
            )
            assert decisions == {1: 1, 2: 1, 3: 1, 4: 1}
        finally:
            await cluster.close()

    asyncio.run(main())


def test_agreement_over_sockets_split_inputs_agrees(cfg4):
    async def main():
        cluster = NetCluster(cfg4, tconfig=FAST)
        await cluster.start()
        try:
            decisions = await cluster.run_agreement(
                [0, 1, 0, 1], coin="local", timeout=30
            )
            assert len(decisions) == 4
            assert len(set(decisions.values())) == 1  # agreement-safety
        finally:
            await cluster.close()

    asyncio.run(main())


@pytest.mark.parametrize(
    "inputs", [{1: 0, 2: 1}, {pid: 1 for pid in range(1, 6)}, [1, 1]]
)
def test_cluster_agreement_rejects_inputs_not_naming_the_pids(
    cfg4, inputs, monkeypatch
):
    """Same normaliser as the simulator's entry points: refused before any
    node starts a process (it used to be a ``KeyError`` mid start loop, or
    an oversized map disarming the monitor's validity check)."""
    started = []
    monkeypatch.setattr(
        ABAProcess, "start", lambda self, value: started.append(self.pid)
    )

    async def main():
        cluster = NetCluster(cfg4, tconfig=FAST)
        await cluster.start()
        try:
            with pytest.raises(ConfigurationError):
                await cluster.run_agreement(inputs, coin="local", timeout=5)
            assert started == []
        finally:
            await cluster.close()

    asyncio.run(main())


def test_monitor_observes_cluster_run(cfg4):
    async def main():
        monitor = InvariantMonitor()
        cluster = NetCluster(cfg4, tconfig=FAST, monitor=monitor)
        await cluster.start()
        try:
            decisions = await cluster.run_agreement(
                [1, 1, 1, 1], coin="local", timeout=30
            )
            assert set(decisions.values()) == {1}
        finally:
            await cluster.close()
        # The monitor raises InvariantViolation at the offending event;
        # reaching here unraised means the run was clean.  The verdict
        # proves the hooks actually fired through the net runtime.
        verdict = monitor.verdict()
        assert len(verdict["decisions"]) == 4
        assert {value for _, _, value, _ in verdict["decisions"]} == {1}

    asyncio.run(main())


def test_a_cluster_without_a_journal_dir_journals_into_its_own(cfg4):
    """``NetCluster`` has one node shape: with no ``journal_dir`` every
    node still journals, into a temporary directory the cluster owns, so
    ``restart_node`` rejoins from it, and ``close()`` removes it."""

    async def main():
        cluster = NetCluster(cfg4, tconfig=FAST)
        root = cluster.journal_dir
        await cluster.start()
        try:
            for pid, node in cluster.nodes.items():
                assert node.journal.path == root / f"node-{pid}.journal"
                assert node.journal.path.exists()
            first = await cluster.run_agreement(
                [1, 1, 1, 1], coin="local", instance="before", timeout=30
            )
            assert first == {1: 1, 2: 1, 3: 1, 4: 1}
            await cluster.restart_node(2)
            assert cluster.nodes[2].journal.state.replayed > 0
            assert cluster.stats()["journal_replayed"] > 0
            second = await cluster.run_agreement(
                [0, 0, 0, 0], coin="local", instance="after", timeout=30
            )
            assert second == {1: 0, 2: 0, 3: 0, 4: 0}
        finally:
            await cluster.close()
        assert not root.exists()

    asyncio.run(main())


def test_the_cluster_vss_knob_is_gone(cfg4):
    with pytest.raises(TypeError, match="with_vss"):
        NetCluster(cfg4, with_vss=False)


def test_kill_and_revive_within_t(cfg4):
    """Agreement survives one transport-crashed node (n=4, t=1), and the
    crashed node reconnects cleanly for the next instance."""

    async def main():
        cluster = NetCluster(cfg4, tconfig=FAST)
        await cluster.start()
        try:
            await cluster.kill_node(2)
            first = await cluster.run_agreement(
                [1, 1, 1, 1], coin="local", instance="r1",
                timeout=30, faulty={2},
            )
            assert first == {1: 1, 3: 1, 4: 1}

            await cluster.revive_node(2)
            second = await cluster.run_agreement(
                [0, 0, 0, 0], coin="local", instance="r2", timeout=30
            )
            assert second == {1: 0, 2: 0, 3: 0, 4: 0}
        finally:
            await cluster.close()

    asyncio.run(main())


def test_revive_heals_link_after_counted_ring_drops(tmp_path):
    """Regression: while a peer is DOWN its queue ring-drops with
    accounting; on revive the sender must announce its (advanced) base —
    including drops racing the handshake itself — so the receiver jumps
    the shed range instead of waiting forever for seqs that no longer
    exist.  The tail sent after revival must arrive, in order."""
    config = SystemConfig(n=2, t=0, seed=6)
    tconfig = TransportConfig(
        connect_timeout=0.5,
        backoff_base=0.02,
        backoff_max=0.2,
        heartbeat_interval=0.1,
        idle_timeout=1.5,
        down_after=0.3,
        down_queue_cap=50,
    )

    async def main():
        a, b = await _pair(config, tmp_path, tconfig)()
        got = []
        b.host.register_handler("m", lambda src, msg: got.append(msg))
        for i in range(20):
            a.dispatch_out(2, ("m", i))
        await b.wait_for(lambda: len(got) >= 20, timeout=10)

        await b.stop_transport()
        await a.wait_for(
            lambda: a.peer_states().get(2) == PEER_DOWN, timeout=10
        )
        for i in range(20, 520):
            a.dispatch_out(2, ("m", i))  # >> cap: the ring sheds, counted

        # Keep traffic flowing while b restarts so ring drops race the
        # HELLO/WELCOME handshake — the exact stall this regresses.
        stop_spam = asyncio.Event()

        async def spam():
            i = 520
            while not stop_spam.is_set():
                a.dispatch_out(2, ("m", i))
                i += 1
                await asyncio.sleep(0.001)

        spam_task = asyncio.get_running_loop().create_task(spam())
        await b.restart_transport()
        await asyncio.sleep(0.3)
        stop_spam.set()
        await spam_task
        tail = [("m", i) for i in range(1000, 1005)]
        for payload in tail:
            a.dispatch_out(2, payload)

        await b.wait_for(lambda: got[-5:] == tail, timeout=15)
        assert a.peers[2].stats.dropped_while_down >= 300
        # Everything delivered after the restart is still in seq order.
        values = [i for _, i in got]
        assert values == sorted(values)
        await a.close()
        await b.close()

    asyncio.run(main())


def _frames_and_retransmits(stats: dict) -> tuple[int, int]:
    peers = [p for node in stats["nodes"].values() for p in node["peers"].values()]
    return sum(p["sent"] for p in peers), sum(p["retransmits"] for p in peers)


@pytest.mark.slow
def test_full_svss_coin_flip_over_sockets(cfg4):
    """One complete MW-SVSS shunning-coin invocation across real TCP —
    every process outputs a bit — inside the frame budget: the step
    window reaches the sockets, so a clean coin is a few thousand DATA
    frames (one per destination per delivery step), not one per logical
    message (172.8 k before aggregation reached this transport)."""

    async def main():
        cluster = NetCluster(cfg4)
        await cluster.start()
        try:
            outputs = await cluster.flip_coin(session=0, timeout=120)
            stats = cluster.stats()
        finally:
            await cluster.close()
        assert set(outputs) == {1, 2, 3, 4}
        assert set(outputs.values()) <= {0, 1}
        frames, retransmits = _frames_and_retransmits(stats)
        assert frames <= 12_000
        assert retransmits == 0
        assert stats["frame_errors"] == 0
        for node in stats["nodes"].values():
            assert node["envelopes_pushed"] > 0
            assert node["svec_packed"] > 0
            assert node["svec_batch_ingested"] > 0
            # ``delivered`` counts logical messages, not frames — and a
            # step's reliable broadcasts are one logical message since the
            # RB fold (about 3 400 payloads on 1 850 frames per node; it
            # was 4x and more with one RB per vector).
            assert node["delivered"] > 1.5 * node["frames_delivered"]

    asyncio.run(main())


@pytest.mark.slow
def test_flush_chunks_envelopes_to_the_frame_limit(cfg4):
    """With a 4 KiB frame limit a step's envelope no longer fits one
    frame: the flush must split it (in send order) instead of raising out
    of a handler or sending frames the receiver rejects as oversized."""

    async def main():
        tconfig = TransportConfig(max_frame_body=4096)
        cluster = NetCluster(cfg4, tconfig=tconfig)
        await cluster.start()
        emitted = []  # wire payloads the flushes handed to remote links
        for node in cluster.nodes.values():
            def counting(src, dst, payload, node=node):
                if dst != node.pid:
                    emitted.append(dst)
                type(node.runtime)._emit(node.runtime, src, dst, payload)

            node.runtime._emit = counting
        try:
            outputs = await cluster.flip_coin(session=0, timeout=120)
            stats = cluster.stats()
        finally:
            await cluster.close()
        assert set(outputs) == {1, 2, 3, 4}
        assert len(set(outputs.values())) == 1
        for node in stats["nodes"].values():
            assert node["frame_errors"] == {}
        # More frames than wire payloads: some envelope really was split.
        frames, _ = _frames_and_retransmits(stats)
        assert frames > len(emitted)

    asyncio.run(main())


def test_chunked_envelope_preserves_send_order(tmp_path):
    """Unit view of the split: sub-payloads leave in send order, every
    frame body fits the limit, a lone sub-payload travels plain."""
    config = SystemConfig(n=2, t=0, seed=8)
    tconfig = TransportConfig(max_frame_body=256)

    async def main():
        a, b = await _pair(config, tmp_path, tconfig)()
        got = []
        b.host.register_handler("m", lambda src, msg: got.append(msg))
        sent = [("m", i, "x" * (i % 90)) for i in range(60)]
        with a.runtime.coalescing_step():
            for payload in sent:
                a.host.send(2, payload, "test")
        assert 1 < a.peers[2].stats.sent < len(sent)
        assert all(
            len(frame) <= 256 + 11  # header + crc around the body
            for _, frame in a.peers[2].queue
        )
        await b.wait_for(lambda: len(got) >= len(sent), timeout=10)
        assert got == sent
        assert b.frame_errors == {}
        assert b.delivered == len(sent)
        assert b.frames_delivered == a.peers[2].stats.sent
        await a.close()
        await b.close()

    asyncio.run(main())


def test_envelopes_are_exactly_once_across_a_transport_restart(tmp_path):
    """The unit of retransmission is a frame, and a frame is now an
    envelope: a receiver restarted mid-stream must still see
    every *logical* message exactly once, in order."""
    config = SystemConfig(n=2, t=0, seed=9)

    async def main():
        a, b = await _pair(config, tmp_path)()
        got = []
        b.host.register_handler("m", lambda src, msg: got.append(msg[1]))

        def burst(start: int) -> None:
            with a.runtime.coalescing_step():
                for i in range(start, start + 10):
                    a.host.send(2, ("m", i), "test")

        for step in range(20):
            burst(step * 10)
        await b.wait_for(lambda: len(got) >= 100, timeout=10)
        await b.stop_transport()
        for step in range(20, 40):
            burst(step * 10)  # queued while b is dark
        await asyncio.sleep(0.2)
        await b.restart_transport()
        await b.wait_for(lambda: len(got) >= 400, timeout=15)
        assert got == list(range(400))
        assert a.runtime.envelopes_pushed == 40
        await a.close()
        await b.close()

    asyncio.run(main())


@pytest.mark.slow
def test_transport_restart_in_the_middle_of_a_coin(cfg4, tmp_path):
    """Crash and reboot one node's transport while the coin's envelopes
    are in flight: peers resync by the epoch handshake, unacked envelopes
    are retransmitted whole, and all n processes still output."""

    async def main():
        cluster = NetCluster(cfg4, journal_dir=tmp_path)
        await cluster.start()
        try:
            flip = asyncio.ensure_future(cluster.flip_coin(session=0, timeout=90))
            node = cluster.nodes[2]
            await cluster.wait_for(lambda: node.delivered > 2000, timeout=30)
            assert not flip.done()
            assert node.memo.bytes > 0
            await cluster.kill_node(2)
            # The value memo is a cache of the dead incarnation's traffic:
            # the new one starts empty and fills from what it is re-sent.
            assert node.memo.stats()["entries"] == node.memo.bytes == 0
            await asyncio.sleep(0.2)
            await cluster.revive_node(2)
            outputs = await flip
            assert node.memo.bytes > 0
            stats = cluster.stats()
        finally:
            await cluster.close()
        assert set(outputs) == {1, 2, 3, 4}
        assert len(set(outputs.values())) == 1
        assert stats["frame_errors"] == 0

    asyncio.run(main())
