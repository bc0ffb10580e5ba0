"""Authenticated-handshake and journal-era restart tests.

HMAC challenge/response gates every inbound HELLO, under the configured
cluster secret or the one derived from the run seed: an impostor
claiming an honest pid is counted and ignored — without stalling the
honest link it tried to steal.  The
restart tests are the journal-era twin of PR 7's handshake-vs-DOWN-ring
race: a transport restarted (in-process) or a node rebuilt cold from its
journal (the ``kill -9`` analogue) must never regress a seq and never
deliver a frame twice.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.config import SystemConfig
from repro.core.api import build_node_modules
from repro.core.sessions import SVEC_MW, svec_sid
from repro.core.vectormux import SVEC_TAG
from repro.net.cluster import NetCluster
from repro.net.codec import (
    FRAME_AUTH,
    FRAME_CHALLENGE,
    FRAME_DATA,
    FRAME_HELLO,
    FRAME_WELCOME,
    MEMO_MAX_BYTES,
    SEQ_PREFIX,
    CodecError,
    FrameParser,
    decode_value,
    encode_frame,
    encode_payload_frame,
    encode_value,
)
from repro.net.transport import (
    PROTO_VERSION,
    NetworkNode,
    TransportConfig,
    derive_cluster_secret,
    derive_pair_key,
    handshake_mac,
)


SECRET = b"cluster-secret-for-tests"

FAST = TransportConfig(
    connect_timeout=0.5,
    backoff_base=0.02,
    backoff_max=0.2,
    heartbeat_interval=0.1,
    idle_timeout=1.0,
    down_after=0.5,
    auth_secret=SECRET,
    journal_flush_interval=0.02,
)


def _wire(config, tconfigs, journal_dir):
    """Start one node per (pid, tconfig) wired into one address book,
    each journaling to ``journal_dir / node-<pid>.journal``."""

    async def build():
        nodes = {}
        for pid, tconfig in tconfigs.items():
            path = journal_dir / f"node-{pid}.journal"
            nodes[pid] = NetworkNode(config, pid, path, tconfig=tconfig)
            await nodes[pid].start_server()
        book = {pid: ("127.0.0.1", n.port) for pid, n in nodes.items()}
        for node in nodes.values():
            node.set_peers(book)
            node.start_peers()
        return nodes

    return build


# ---------------------------------------------------------------------------
# Handshake authentication
# ---------------------------------------------------------------------------


def test_authenticated_pair_delivers_both_ways(tmp_path):
    config = SystemConfig(n=4, seed=7)

    async def main():
        nodes = await _wire(config, {1: FAST, 2: FAST}, tmp_path)()
        a, b = nodes[1], nodes[2]
        got_a, got_b = [], []
        a.host.register_handler("msg", lambda src, p: got_a.append(p[1]))
        b.host.register_handler("msg", lambda src, p: got_b.append(p[1]))
        for i in range(10):
            a.dispatch_out(2, ("msg", i))
            b.dispatch_out(1, ("msg", i))
        await a.wait_for(lambda: len(got_a) == 10, timeout=10)
        await b.wait_for(lambda: len(got_b) == 10, timeout=10)
        assert a.peers[2].stats.auth_challenges >= 1
        assert b.peers[1].stats.auth_challenges >= 1
        assert a.auth_rejected == 0 and b.auth_rejected == 0
        await a.close()
        await b.close()

    asyncio.run(main())


def test_pair_without_a_configured_secret_authenticates_both_ways(tmp_path):
    """No configured secret is not "no auth": both nodes derive the
    cluster secret from the run seed and challenge each other."""
    config = SystemConfig(n=4, seed=7)
    plain = dataclasses.replace(FAST, auth_secret=b"")

    async def main():
        nodes = await _wire(config, {1: plain, 2: plain}, tmp_path)()
        a, b = nodes[1], nodes[2]
        assert a.secret == b.secret == derive_cluster_secret(7)
        got_a, got_b = [], []
        a.host.register_handler("msg", lambda src, p: got_a.append(p[1]))
        b.host.register_handler("msg", lambda src, p: got_b.append(p[1]))
        for i in range(10):
            a.dispatch_out(2, ("msg", i))
            b.dispatch_out(1, ("msg", i))
        await a.wait_for(lambda: len(got_a) == 10, timeout=10)
        await b.wait_for(lambda: len(got_b) == 10, timeout=10)
        assert got_a == got_b == list(range(10))
        assert a.peers[2].stats.auth_challenges >= 1
        assert b.peers[1].stats.auth_challenges >= 1
        await a.close()
        await b.close()

    asyncio.run(main())


def test_hello_to_a_default_node_is_challenged(tmp_path):
    """A raw HELLO to a node built with ``TransportConfig()`` gets a
    CHALLENGE and never a WELCOME, and touches no link state."""
    config = SystemConfig(n=4, seed=7)

    async def main():
        node = NetworkNode(
            config, 2, tmp_path / "node-2.journal", tconfig=TransportConfig()
        )
        await node.start_server()
        reader, writer = await asyncio.open_connection("127.0.0.1", node.port)
        hello = ("hello", 1, 1, PROTO_VERSION, 1)
        writer.write(encode_frame(FRAME_HELLO, encode_value(hello)))
        await writer.drain()
        parser = FrameParser(FAST.max_frame_body)
        seen = []
        try:
            while True:  # until the node has been quiet for a second
                data = await asyncio.wait_for(reader.read(65536), timeout=1)
                if not data:
                    break
                seen += [ftype for ftype, _ in parser.feed(data)]
        except asyncio.TimeoutError:
            pass
        assert seen == [FRAME_CHALLENGE]
        assert node._recv_links == {}
        writer.close()
        await node.close()

    asyncio.run(main())


def test_impostor_hello_rejected_without_stalling_honest_link(tmp_path):
    """A raw TCP client claims pid 1 with a garbage MAC while the real
    pid 1 keeps sending: the impostor is counted and never welcomed, the
    honest link is untouched."""
    config = SystemConfig(n=4, seed=7)

    async def main():
        nodes = await _wire(config, {1: FAST, 2: FAST}, tmp_path)()
        a, b = nodes[1], nodes[2]
        got = []
        b.host.register_handler("msg", lambda src, p: got.append(p[1]))

        async def impostor():
            reader, writer = await asyncio.open_connection("127.0.0.1", b.port)
            hello = ("hello", 1, 99, PROTO_VERSION, 1)
            writer.write(encode_frame(FRAME_HELLO, encode_value(hello)))
            await writer.drain()
            parser = FrameParser(FAST.max_frame_body)
            challenged = False
            while not challenged:
                data = await asyncio.wait_for(reader.read(65536), timeout=5)
                assert data, "server closed before challenging"
                for ftype, body in parser.feed(data):
                    if ftype == FRAME_CHALLENGE:
                        value = decode_value(body)
                        assert value[0] == "challenge"
                        challenged = True
            writer.write(
                encode_frame(
                    FRAME_AUTH, encode_value(("auth", 1, b"\x00" * 32))
                )
            )
            await writer.drain()
            writer.close()

        for i in range(30):
            a.dispatch_out(2, ("msg", i))
        await impostor()
        await b.wait_for(lambda: len(got) == 30, timeout=10)
        await b.wait_for(lambda: b.auth_rejected >= 1, timeout=5)
        assert got == list(range(30))
        await a.close()
        await b.close()

    asyncio.run(main())


def test_wrong_secret_never_welcomed(tmp_path):
    config = SystemConfig(n=4, seed=7)
    wrong = dataclasses.replace(FAST, auth_secret=b"not-the-secret")

    async def main():
        nodes = await _wire(config, {1: wrong, 2: FAST}, tmp_path)()
        a, b = nodes[1], nodes[2]
        got = []
        b.host.register_handler("msg", lambda src, p: got.append(p[1]))
        a.dispatch_out(2, ("msg", 1))
        await b.wait_for(lambda: b.auth_rejected >= 1, timeout=10)
        assert got == []  # the MAC check, not luck, kept it out
        await a.close()
        await b.close()

    asyncio.run(main())


def test_cluster_has_no_auth_switch(tmp_path):
    """``NetCluster(auth=)`` is gone, and so are ``run_processes(auth=)``
    and the launcher's ``--no-auth`` (``tests/test_net_journal.py`` pins
    those): a node without a configured secret derives one from the run
    seed, and a configured secret is kept."""
    config = SystemConfig(n=4, seed=7)
    with pytest.raises(TypeError, match="auth"):
        NetCluster(config, auth=False)
    default = NetworkNode(config, 1, tmp_path / "default.journal")
    configured = NetworkNode(config, 1, tmp_path / "fast.journal", tconfig=FAST)
    assert default.secret == derive_cluster_secret(7)
    assert configured.secret == SECRET
    for node in (default, configured):
        node.journal.close()


def test_mac_binds_direction_and_epoch():
    key = derive_pair_key(SECRET, 1, 2)
    assert key == derive_pair_key(SECRET, 2, 1)  # unordered pair
    mac = handshake_mac(key, b"n" * 16, 1, 2, 1, 1)
    assert mac != handshake_mac(key, b"n" * 16, 2, 1, 1, 1)  # direction
    assert mac != handshake_mac(key, b"n" * 16, 1, 2, 2, 1)  # epoch
    assert mac != handshake_mac(key, b"n" * 16, 1, 2, 1, 9)  # seq base
    assert mac != handshake_mac(derive_pair_key(SECRET, 1, 3), b"n" * 16, 1, 2, 1, 1)


# ---------------------------------------------------------------------------
# The aggregation contract over sockets (docs/ADVERSARY.md): envelopes and
# slot-vectors are framing — a byzantine peer gains nothing by forging them,
# and a byzantine *host* keeps acting on logical messages.
# ---------------------------------------------------------------------------


async def _authenticated_raw_link(
    target: NetworkNode, pid: int, secret: bytes = SECRET, epoch: int = 1
):
    """A raw TCP client that *is* cluster member ``pid`` (it holds the
    pair key) but speaks the wire protocol by hand — the byzantine peer."""
    reader, writer = await asyncio.open_connection("127.0.0.1", target.port)
    base = 1
    writer.write(
        encode_frame(
            FRAME_HELLO, encode_value(("hello", pid, epoch, PROTO_VERSION, base))
        )
    )
    await writer.drain()
    parser = FrameParser(FAST.max_frame_body)
    while True:
        data = await asyncio.wait_for(reader.read(65536), timeout=5)
        assert data, "server closed during the handshake"
        for ftype, body in parser.feed(data):
            if ftype == FRAME_CHALLENGE:
                nonce = decode_value(body)[2]
                key = derive_pair_key(secret, pid, target.pid)
                mac = handshake_mac(key, nonce, pid, target.pid, epoch, base)
                writer.write(
                    encode_frame(FRAME_AUTH, encode_value(("auth", pid, mac)))
                )
                await writer.drain()
            elif ftype == FRAME_WELCOME:
                return writer


def test_forged_envelopes_and_vectors_grant_nothing_over_sockets(
    spy_handle, tmp_path
):
    """An authenticated byzantine peer hand-crafts envelopes (nested,
    non-tuple / empty / unknown-tag sub-payloads) and a slot-vector with
    malformed slots: each bad piece is dropped on its own, its well-formed
    siblings land exactly as if sent plainly, and the link stays up."""
    config = SystemConfig(n=4, seed=7)
    group = (SVEC_MW, ("cc", "solo", 0), 2, 2, 3, "md")

    async def main():
        nodes = await _wire(config, {1: FAST}, tmp_path)()
        node = nodes[1]
        _, vss = build_node_modules(node.host)
        got = []
        node.host.register_handler("a", lambda src, p: got.append(p))
        handled = {}
        for slot in (1, 3):
            calls = handled[slot] = []
            spy_handle(
                vss._ensure_mw(svec_sid(group, slot)),
                lambda *a, calls=calls: calls.append(a),
            )
        forged = [
            ("env", "not-a-tuple-body"),
            ("env",),
            (
                "env",
                (
                    ("env", (("a", "nested"),)),  # nesting refused
                    "garbage",  # non-tuple sub-payload
                    (),  # empty sub-payload
                    ("unknown", 1),  # unregistered tag
                    ("a", 42),  # a valid one still lands
                ),
            ),
            (
                "env",
                (
                    (
                        SVEC_TAG,
                        "cnf",
                        group,
                        (1, "junk", (2,), "x", 3),
                        (5, 6, 7, 8, 9),
                    ),
                    ("a", 43),
                ),
            ),
            ("a", 44),
        ]
        writer = await _authenticated_raw_link(node, 2)
        for seq, payload in enumerate(forged, start=1):
            writer.write(encode_payload_frame(payload, seq=seq))
        await writer.drain()
        await node.wait_for(lambda: len(got) >= 3, timeout=10)
        assert got == [("a", 42), ("a", 43), ("a", 44)]
        assert handled == {1: [(2, "cnf", 5)], 3: [(2, "cnf", 9)]}
        assert set(vss.mw) == {svec_sid(group, 1), svec_sid(group, 3)}
        assert node.frame_errors == {}
        assert node.frames_delivered == len(forged)
        # The wire's value language has no unhashable value (lists do not
        # encode), so that forgery can only be tried in-process: same drop.
        node.host.deliver(2, ("env", ((["unhashable"], 1), ("a", 45))))
        assert got[-1] == ("a", 45)
        writer.close()
        await node.close()

    asyncio.run(main())


@pytest.mark.slow
def test_memo_poisoning_by_an_authenticated_peer_changes_nothing():
    """Byzantine pid 4 (node 4 is dark; a raw socket holds its keys) works
    on the honest nodes' value memos while pids 1-3 flip a coin: forged
    ``b2`` / ``b3`` for honest bids *before* the honest values exist,
    forgeries one byte off the honest value, a deeply nested bid of odd
    scalars, 50 values on one bid.  A memo only ever answers with a value
    whose bytes are on the wire in front of it, so the outputs are the
    clean run's (with three live processes every n - t set is forced, so
    the coin is a function of the seed), nothing is counted as a frame
    error, and every memo stays under its bound."""
    config = SystemConfig(n=4, seed=77)
    honest = (1, 2, 3)
    early = [(origin, "svec", k) for origin in honest for k in range(3)]
    odd_bid = (4, float("nan"), b"\x00\xff", -0.0, None)
    for _ in range(40):
        odd_bid = (odd_bid,)

    async def coin(attacked: bool):
        cluster = NetCluster(config)
        await cluster.start()
        forged_near = 0
        try:
            await cluster.kill_node(4)
            if attacked:
                links = {
                    pid: await _authenticated_raw_link(
                        cluster.nodes[pid], 4,
                        secret=cluster.nodes[pid].secret, epoch=99,
                    )
                    for pid in honest
                }
                seqs = dict.fromkeys(honest, 0)

                def send_all(body: bytes) -> None:
                    for pid, writer in links.items():
                        seqs[pid] += 1
                        writer.write(
                            encode_frame(
                                FRAME_DATA, SEQ_PREFIX.pack(seqs[pid]) + body
                            )
                        )

                for bid in early:
                    for tag in ("b2", "b3"):
                        send_all(encode_value((tag, bid, ("svec", ("forged", tag)))))
                send_all(encode_value(("b2", odd_bid, ("svec", ("odd",)))))
                send_all(encode_value(("b3", odd_bid, ("svec", ("odd",)))))
                for k in range(50):
                    send_all(encode_value(("b3", (4, "svec", 0), ("svec", ("flood", k)))))
                for writer in links.values():
                    await writer.drain()
                await cluster.wait_for(
                    lambda: all(
                        cluster.nodes[pid].memo.entries.get(
                            encode_value((4, "svec", 0)), (None, None)
                        )[1] == ("svec", ("flood", 49))
                        for pid in honest
                    ),
                    timeout=10,
                )
                for pid in honest:  # the poison is in before the coin starts
                    memo = cluster.nodes[pid].memo
                    assert len(memo.entries) == len(early) + 2
                    # Only the odd bid's b3 repeated a value.
                    assert (memo.hits, memo.misses) == (1, 2 * len(early) + 51)
                    for bid in early:
                        entry = memo.entries[encode_value(bid)]
                        assert entry[1] == ("svec", ("forged", "b3"))

            async def forge_near_values():
                # Watch node 1 learn honest values; answer each with a value
                # whose encoding differs from the honest one in its last byte.
                nonlocal forged_near
                seen = set()
                while forged_near < 40:
                    for key, entry in list(cluster.nodes[1].memo.entries.items()):
                        if key in seen or decode_value(key)[0] == 4:
                            continue
                        seen.add(key)
                        near = entry[0][:-1] + bytes([entry[0][-1] ^ 1])
                        body = b"\x06\x03" + encode_value("b2") + key + near
                        try:
                            assert decode_value(body)[2] != entry[1]
                        except CodecError:
                            continue
                        send_all(body)
                        forged_near += 1
                    await asyncio.sleep(0.002)

            task = (
                asyncio.ensure_future(forge_near_values()) if attacked else None
            )
            try:
                outputs = await cluster.flip_coin(
                    session=0, timeout=60, faulty={4}
                )
            finally:
                if task is not None:
                    task.cancel()
            await asyncio.sleep(0.1)  # let the last forgeries land
            stats = cluster.stats()
        finally:
            await cluster.close()
        return outputs, stats, forged_near

    clean_outputs, clean_stats, _ = asyncio.run(coin(False))
    outputs, stats, forged_near = asyncio.run(coin(True))
    assert set(clean_outputs) == set(honest)
    assert outputs == clean_outputs
    assert forged_near >= 20
    assert stats["frame_errors"] == clean_stats["frame_errors"] == 0
    for pid in honest:
        for run in (clean_stats, stats):
            memo = run["nodes"][pid]["decode_memo"]
            assert 0 < memo["bytes"] <= MEMO_MAX_BYTES
            assert memo["hits"] > memo["misses"]
        # Every forgery cost its own decode, and re-decodes of the honest
        # values it displaced — a bounded number, not one per echo.
        extra = (
            stats["nodes"][pid]["decode_memo"]["misses"]
            - clean_stats["nodes"][pid]["decode_memo"]["misses"]
        )
        forged = 2 * len(early) + 2 + 50 + forged_near
        assert 0 < extra <= 2 * forged + len(early)


def test_outbound_filter_sees_logical_messages_before_buffering(tmp_path):
    """A byzantine-hosted node: its filter rewrites/observes each logical
    message (never an envelope), the survivors still share one frame, and
    its session-vector mux refuses to pack."""
    config = SystemConfig(n=4, seed=7)

    async def main():
        nodes = await _wire(config, {1: FAST, 2: FAST}, tmp_path)()
        a, b = nodes[1], nodes[2]
        _, vss = build_node_modules(a.host)
        csid = ("cc", "solo", 0)
        vss.mux.register_family(csid)
        sid = svec_sid((SVEC_MW, csid, 1, 1, 3, "md"), 1)
        got, seen, offers = [], [], []
        b.host.register_handler("x", lambda src, p: got.append(p))
        b.host.register_handler("y", lambda src, p: got.append(p))

        def kick(src, payload):
            offers.append(vss.mux.offer_private(2, sid, "cnf", 5))
            a.host.send(2, ("x", 1), "test")
            a.host.send(2, ("y", 2), "test")

        a.host.register_handler("kick", kick)
        a.dispatch_out(1, ("kick",))  # one pump delivery = one step
        await a.wait_for(lambda: offers, timeout=5)
        assert offers == [True]  # honest host, open step: the mux packs

        def rewrite(dst, payload):
            seen.append(payload)
            return ("x", 99) if payload[0] == "x" else payload

        a.host.outbound_filter = rewrite
        a.dispatch_out(1, ("kick",))
        await b.wait_for(lambda: len(got) >= 4, timeout=10)
        assert offers == [True, False]
        # Step 1 (honest): the packed slot travelled plain as a lone "v"
        # message inside the envelope; step 2: the filter saw x and y only.
        assert seen == [("x", 1), ("y", 2)]
        assert got == [("x", 1), ("y", 2), ("x", 99), ("y", 2)]
        assert a.runtime.envelopes_pushed == 2
        assert a.peers[2].stats.sent == 2
        await a.close()
        await b.close()

    asyncio.run(main())


def test_crash_mid_envelope_drops_the_rest_on_a_network_host(tmp_path):
    """``host.crash()`` raised by sub-payload j kills j+1.. of that
    envelope — and a crash→recover inside the unpack loop still does
    (the ``crash_epoch`` fence) — exactly as on a simulated host."""
    config = SystemConfig(n=4, seed=7)

    async def main():
        nodes = await _wire(config, {1: FAST, 2: FAST}, tmp_path)()
        a, b = nodes[1], nodes[2]
        got = []

        def on_a(src, payload):
            got.append(payload)
            if payload[1] == "crash":
                b.host.crash()
            elif payload[1] == "bounce":
                b.host.crash()
                b.host.recover()  # epoch bump: the tail is still fenced

        b.host.register_handler("a", on_a)
        b.host.register_handler("b", lambda src, p: got.append(p))
        with a.runtime.coalescing_step():
            for payload in (("a", "bounce"), ("b", 1), ("b", 2)):
                a.host.send(2, payload, "test")
        await b.wait_for(lambda: b.frames_delivered >= 1, timeout=10)
        assert got == [("a", "bounce")]
        assert not b.host.crashed and b.host.crash_epoch == 1
        with a.runtime.coalescing_step():
            for payload in (("b", 3), ("a", "crash"), ("b", 4)):
                a.host.send(2, payload, "test")
        await b.wait_for(lambda: b.frames_delivered >= 2, timeout=10)
        assert got == [("a", "bounce"), ("b", 3), ("a", "crash")]
        assert b.host.crashed
        assert a.peers[2].stats.sent == 2  # one frame per step
        await a.close()
        await b.close()

    asyncio.run(main())


# ---------------------------------------------------------------------------
# Restart races (journal era)
# ---------------------------------------------------------------------------


def test_restart_transport_race_no_duplicates_with_journal(tmp_path):
    """``restart_transport`` racing in-flight handshakes: with a journal
    attached the receiver keeps its delivery cursor across the restart,
    so the retransmit storm that follows resyncs without a single
    duplicate or regressed seq."""
    config = SystemConfig(n=4, seed=7)

    async def main():
        nodes = await _wire(config, {1: FAST, 2: FAST}, tmp_path)()
        a, b = nodes[1], nodes[2]
        got = []
        b.host.register_handler("msg", lambda src, p: got.append(p[1]))

        async def sender():
            for i in range(300):
                a.dispatch_out(2, ("msg", i))
                if i % 50 == 0:
                    await asyncio.sleep(0.01)

        async def restarter():
            # Two quick restarts land mid-burst, racing HELLO/WELCOME.
            for _ in range(2):
                await asyncio.sleep(0.05)
                await b.stop_transport()
                await asyncio.sleep(0.02)
                await b.restart_transport()

        await asyncio.gather(sender(), restarter())
        await b.wait_for(lambda: len(got) >= 300, timeout=20)
        assert got == list(range(300))  # exactly once, in order
        await a.close()
        await b.close()

    asyncio.run(main())


def test_cold_restart_resumes_seqs_from_journal(tmp_path):
    """Kill -9 analogue in-process: a brand-new NetworkNode on the same
    journal resumes its send seqs and epoch; the peer sees one continuous
    exactly-once stream across the node's death."""
    config = SystemConfig(n=4, seed=7)
    path = tmp_path / "node-1.journal"

    async def main():
        nodes = await _wire(config, {1: FAST, 2: FAST}, tmp_path)()
        a, b = nodes[1], nodes[2]
        got = []
        b.host.register_handler("msg", lambda src, p: got.append(p[1]))
        for i in range(25):
            a.dispatch_out(2, ("msg", i))
        await b.wait_for(lambda: len(got) == 25, timeout=10)
        port, old_epoch = a.port, a.epoch
        sent_high = a.peers[2]._next_seq - 1
        await a.close()

        a2 = NetworkNode(config, 1, path, tconfig=FAST)
        assert a2.epoch == old_epoch + 1
        await a2.start_server(port)
        a2.set_peers({1: ("127.0.0.1", port), 2: ("127.0.0.1", b.port)})
        a2.start_peers()
        # Send seqs resume past everything the dead incarnation used.
        assert a2.peers[2]._next_seq == sent_high + 1
        for i in range(25, 50):
            a2.dispatch_out(2, ("msg", i))
        await b.wait_for(lambda: len(got) == 50, timeout=10)
        assert got == list(range(50))
        await a2.close()
        await b.close()

    asyncio.run(main())
