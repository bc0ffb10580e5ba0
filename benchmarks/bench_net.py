"""Socket-transport benchmark — emits ``BENCH_net.json``.

The robustness artifact for the real-network layer (ROADMAP item 1):

1. **Throughput** — a blast of messages across one directed 2-node link
   (both nodes journaled, like every node), clean and under each
   throughput-meaningful chaos profile, with the exactly-once in-order
   contract asserted on every run; each row keeps the retransmits,
   reconnects and proxy counts it cost, and the rows of the profiles
   that only delay (``delay``, ``slow_link``) are gated at 0 frames
   resent on one connection: a delay never reorders a link.
2. **Reconnect recovery** — after ``restart_transport``, a backlog
   queued during the outage is fully delivered in order: one
   crash+reboot resync (epoch handshake + retransmit), with the
   reconnects it cost.
3. **Chaos-safety gate** — every profile in
   :data:`~repro.net.chaos.CHAOS_PROFILES` runs split-input agreement
   with the invariant monitor armed; one violation anywhere fails the
   bench before any number is written.
4. **Sim-equivalence gate** — the decision reached over real sockets is
   bit-identical to the simulator's on the same unanimous inputs: the
   transport may change timing, never outcomes.
5. **Restart lifecycle gate** — under *every* chaos profile: SIGKILL one
   OS-process node mid-run, relaunch it from its journal, and the final
   all-n decision must equal the clean no-kill run's.
6. **Impostor-storm gate** — a loop hammering forged HELLOs at every
   node never stalls honest agreement, and every forgery is counted.
7. **SVSS coin on the wire** — frames and wire bytes for one
   n=4 shunning-coin invocation over sockets (the paper's unit of cost),
   gated at <= 12 000 DATA frames and 0 retransmits on a clean link: the
   step window's aggregation must reach the sockets.  Two more count
   gates hold the value memo to its contract: at least 60 % of the RB
   values a node is handed are answered from its memo, and the bytes on
   the wire are what they were without it (the memo changes what a node
   decodes, never what it sends).

The JSON artifact is committed at the repo root next to the other
``BENCH_*.json`` so the transport's trajectory stays diffable across PRs.
It holds counts and verdicts, no seconds: time over sockets is the
end-to-end benchmark's job (``benchmarks/e2e``, workload ``net_coin_n4``).
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
from pathlib import Path

import repro.net.transport as transport
from bench_common import bench_payload, write_bench_json
from repro.config import SystemConfig
from repro.core.api import run_byzantine_agreement
from repro.net.chaos import CHAOS_PROFILES, ChaosProxy
from repro.net.cluster import NetCluster
from repro.net.codec import (
    FRAME_AUTH,
    FRAME_DATA,
    FRAME_HELLO,
    encode_frame,
    encode_value,
)
from repro.net.launch import run_processes
from repro.net.transport import PROTO_VERSION, NetworkNode, TransportConfig
from repro.sim.monitor import InvariantMonitor

#: CI's net job sets this to shrink the blast size; gates are identical.
SMOKE = os.environ.get("REPRO_NET_SMOKE") == "1"
BLAST = 4000 if SMOKE else 20000
RECONNECT_BACKLOG = 500 if SMOKE else 2000

FAST = TransportConfig(
    connect_timeout=0.5,
    backoff_base=0.02,
    backoff_max=0.2,
    heartbeat_interval=0.1,
    idle_timeout=2.0,
    down_after=1.0,
)

#: Profiles whose steady-state throughput is meaningful (partition is a
#: heal scenario, not a rate; it is still safety-gated below).
THROUGHPUT_PROFILES = ("none", "reset", "delay", "slow_link", "flaky")
#: Profiles that only delay: their blast resends nothing.
FIFO_PROFILES = ("delay", "slow_link")


async def _wired_pair(profile_name: "str | None", journal_dir: Path):
    """Two nodes journaling into ``journal_dir``; the 1 -> 2 direction
    optionally crosses a chaos proxy."""
    config = SystemConfig(n=2, t=0, seed=9000)
    a = NetworkNode(config, 1, journal_dir / "node-1.journal", tconfig=FAST)
    b = NetworkNode(config, 2, journal_dir / "node-2.journal", tconfig=FAST)
    await a.start_server()
    await b.start_server()
    proxy = None
    b_addr = ("127.0.0.1", b.port)
    if profile_name is not None:
        proxy = ChaosProxy(
            2, b_addr, CHAOS_PROFILES[profile_name], seed=9000, n=2
        )
        await proxy.start()
        b_addr = ("127.0.0.1", proxy.port)
    a.set_peers({1: ("127.0.0.1", a.port), 2: b_addr})
    b.set_peers({1: ("127.0.0.1", a.port), 2: ("127.0.0.1", b.port)})
    a.start_peers()
    b.start_peers()
    return a, b, proxy


async def _measure_throughput(
    profile_name: str, n_msgs: int, journal_dir: Path
) -> dict:
    a, b, proxy = await _wired_pair(
        None if profile_name == "none" else profile_name, journal_dir
    )
    got: list = []
    b.host.register_handler("m", lambda src, msg: got.append(msg))
    for i in range(n_msgs):
        a.dispatch_out(2, ("m", i))
    await b.wait_for(lambda: len(got) >= n_msgs, timeout=180)
    # The exactly-once in-order contract IS the bench's validity condition.
    assert got == [("m", i) for i in range(n_msgs)], (
        f"profile {profile_name}: delivery broke order/uniqueness"
    )
    stats = a.peers[2].stats
    if profile_name in FIFO_PROFILES:
        assert (stats.retransmits, stats.reconnects) == (0, 1), (
            f"profile {profile_name}: {stats.retransmits} frames resent "
            f"over {stats.reconnects} connections; a delay must not reorder"
        )
    row = {
        "messages": n_msgs,
        "retransmits": stats.retransmits,
        "reconnects": stats.reconnects,
    }
    await a.close()
    await b.close()
    if proxy is not None:
        link = proxy.stats.get(1)
        if link is not None:
            row["proxy"] = {
                "forwarded": link.forwarded,
                "resets": link.resets,
            }
        await proxy.close()
    return row


async def _measure_reconnect(backlog: int, journal_dir: Path) -> dict:
    a, b, _ = await _wired_pair(None, journal_dir)
    got: list = []
    b.host.register_handler("m", lambda src, msg: got.append(msg))
    for i in range(100):
        a.dispatch_out(2, ("m", i))
    await b.wait_for(lambda: len(got) >= 100, timeout=30)

    await b.stop_transport()
    for i in range(100, 100 + backlog):
        a.dispatch_out(2, ("m", i))  # queued while b is dark
    await asyncio.sleep(0.3)

    await b.restart_transport()
    await b.wait_for(lambda: len(got) >= 100 + backlog, timeout=60)
    assert got == [("m", i) for i in range(100 + backlog)]
    row = {
        "backlog_frames": backlog,
        "reconnects": a.peers[2].stats.reconnects,
    }
    await a.close()
    await b.close()
    return row


async def _chaos_safety_matrix() -> dict:
    rows = {}
    for name in sorted(CHAOS_PROFILES):
        monitor = InvariantMonitor()
        cluster = NetCluster(
            SystemConfig(n=4, seed=9100),
            tconfig=FAST,
            chaos=name,
            monitor=monitor,
        )
        await cluster.start()
        try:
            decisions = await cluster.run_agreement(
                [0, 1, 0, 1], coin="local", instance=f"bench-{name}",
                timeout=90,
            )
        finally:
            await cluster.close()
        # Gate: all four decide, identically, with the monitor silent
        # (it raises at the violating event, so reaching here is clean).
        assert len(decisions) == 4 and len(set(decisions.values())) == 1, (
            f"profile {name}: agreement broke: {decisions}"
        )
        verdict = monitor.verdict()
        rows[name] = {
            "decision": decisions[1],
            "max_round": verdict["max_round"],
            "decisions_observed": len(verdict["decisions"]),
        }
    return rows


async def _restart_lifecycle_matrix() -> dict:
    """kill -9 -> relaunch from journal -> rejoin, under every chaos
    profile, across real OS processes.  Gate: zero violations and the
    same decision as the clean no-kill baseline."""
    inputs = [1, 1, 1, 1]
    seed = 9400
    baseline = await run_processes(4, inputs=inputs, seed=seed, timeout=90)
    assert baseline["violations"] == [], baseline["violations"]
    base_decision = baseline["decisions"][0][2]
    rows = {
        "baseline": {
            "decision": base_decision,
            "max_round": baseline["max_round"],
        }
    }
    for name in sorted(CHAOS_PROFILES):
        root = tempfile.mkdtemp(prefix=f"repro-bench-restart-{name}-")
        try:
            verdict = await run_processes(
                4, inputs=inputs, seed=seed, timeout=90,
                chaos=None if name == "none" else name,
                restart={3: (1.0, 2.0)}, journal_dir=root,
                hung_after=30.0,
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        assert verdict["violations"] == [], (
            f"profile {name}: {verdict['violations']}"
        )
        decisions = {pid: v for _, pid, v, _ in verdict["decisions"]}
        assert len(decisions) == 4 and set(decisions.values()) == {
            base_decision
        }, f"profile {name}: decisions {decisions} != no-kill {base_decision}"
        reports = verdict["reports"]
        rows[name] = {
            "decision": decisions[3],
            "rejoined": [pid for pid, r in reports.items() if r["rejoined"]],
            "journal_replayed": sum(
                r["stats"]["journal"]["replayed"] for r in reports.values()
            ),
        }
    return rows


async def _impostor_storm() -> dict:
    """Forged HELLOs (bad MACs) hammer every node while agreement runs:
    the storm must be counted and must never stall honest liveness."""
    cluster = NetCluster(SystemConfig(n=4, seed=9300), tconfig=FAST)
    await cluster.start()
    stop = asyncio.Event()

    async def storm(port: int) -> None:
        forged_hello = encode_frame(
            FRAME_HELLO,
            encode_value(("hello", 1, 999, PROTO_VERSION, 1)),
        )
        forged_auth = encode_frame(
            FRAME_AUTH, encode_value(("auth", 1, b"\x00" * 32))
        )
        while not stop.is_set():
            try:
                _, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(forged_hello + forged_auth)
                await writer.drain()
                writer.close()
            except OSError:
                pass
            await asyncio.sleep(0.005)

    tasks = [
        asyncio.get_running_loop().create_task(storm(node.port))
        for node in cluster.nodes.values()
    ]
    try:
        decisions = await cluster.run_agreement(
            [0, 1, 0, 1], coin="local", instance="storm", timeout=90
        )
        stop.set()
        await asyncio.sleep(0.05)
        rejected = sum(node.auth_rejected for node in cluster.nodes.values())
    finally:
        stop.set()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await cluster.close()
    assert len(decisions) == 4 and len(set(decisions.values())) == 1, (
        f"impostor storm stalled agreement: {decisions}"
    )
    assert rejected > 0, "storm ran but nothing was rejected"
    return {
        "auth_rejected": rejected,
        "decision": decisions[1],
    }


async def _sim_equivalence() -> dict:
    inputs = [1, 1, 1, 1]
    seed = 9200
    cluster = NetCluster(SystemConfig(n=4, seed=seed), tconfig=FAST)
    await cluster.start()
    try:
        net = await cluster.run_agreement(inputs, coin="local", timeout=90)
    finally:
        await cluster.close()
    sim = run_byzantine_agreement(inputs, SystemConfig(n=4, seed=seed), coin="local")
    assert sim.agreed
    assert net == {pid: sim.decision for pid in (1, 2, 3, 4)}, (
        f"socket decisions {net} != sim decision {sim.decision}"
    )
    return {"inputs": inputs, "net": net[1], "sim": sim.decision}


#: Frame budget of one clean n=4 SVSS coin (172.8 k before aggregation
#: reached the sockets, ~7.4 k with one frame per (src, dst) step).
COIN_FRAME_BUDGET = 12_000
#: DATA-frame bytes of that coin.  Which payloads share a frame depends on
#: arrival order, so runs of one commit spread: 3.47 - 3.49 MB since the
#: default field is GF(251), whose values take at most two varint bytes
#: (3.70 - 3.74 MB at 2³¹ − 1; 3.95 - 4.00 MB while slot-vectors were
#: pairs).  The band is that spread's midpoint ± 5 %.
COIN_WIRE_BYTES = (3_306_000, 3_654_000)
#: Least share of RB-value lookups the decode memo must answer: a value
#: arrives 2n + 1 = 9 times and is walked once.
COIN_MEMO_HIT_SHARE = 0.6


async def _svss_coin_on_the_wire() -> dict:
    data_bytes = 0
    real_encode_frame = transport.encode_frame

    def counting_encode_frame(ftype: int, body: bytes) -> bytes:
        nonlocal data_bytes
        frame = real_encode_frame(ftype, body)
        if ftype == FRAME_DATA:
            data_bytes += len(frame)
        return frame

    cluster = NetCluster(SystemConfig(n=4, seed=9300))
    await cluster.start()
    transport.encode_frame = counting_encode_frame
    try:
        outputs = await cluster.flip_coin(session=0, timeout=120)
        stats = cluster.stats()
    finally:
        transport.encode_frame = real_encode_frame
        await cluster.close()
    assert set(outputs) == {1, 2, 3, 4}, f"coin outputs missing: {outputs}"
    assert stats["frame_errors"] == 0 and stats["auth_rejected"] == 0
    nodes = stats["nodes"].values()
    peers = [peer for node in nodes for peer in node["peers"].values()]
    frames = sum(peer["sent"] for peer in peers)
    retransmits = sum(peer["retransmits"] for peer in peers)
    assert frames <= COIN_FRAME_BUDGET, (
        f"{frames} DATA frames for one n=4 coin; budget {COIN_FRAME_BUDGET}"
    )
    assert retransmits == 0, f"{retransmits} retransmits on a clean link"
    low, high = COIN_WIRE_BYTES
    assert low <= data_bytes <= high, (
        f"{data_bytes} wire bytes for one n=4 coin; expected {low}..{high}"
    )
    memo = stats["decode_memo"]
    hit_share = memo["hits"] / (memo["hits"] + memo["misses"])
    assert hit_share >= COIN_MEMO_HIT_SHARE, (
        f"decode memo answered {hit_share:.3f} of RB-value lookups; "
        f"gate {COIN_MEMO_HIT_SHARE}"
    )
    logical = sum(node["delivered"] for node in nodes)
    return {
        "n": 4,
        "data_frames": frames,
        "wire_bytes": data_bytes,
        "retransmits": retransmits,
        "logical_messages_delivered": logical,
        "frames_per_logical_message": round(frames / logical, 4),
        "svec_packed": sum(node["svec_packed"] for node in nodes),
        "envelopes_pushed": sum(node["envelopes_pushed"] for node in nodes),
        "frame_budget": COIN_FRAME_BUDGET,
        "decode_memo": {**memo, "hit_share": round(hit_share, 4)},
    }


def test_bench_net(emit):
    async def main():
        chaos_rows = await _chaos_safety_matrix()  # gates run first
        equivalence = await _sim_equivalence()
        coin = await _svss_coin_on_the_wire()
        restart_rows = await _restart_lifecycle_matrix()
        storm = await _impostor_storm()
        with tempfile.TemporaryDirectory(prefix="repro-bench-net-") as root:
            throughput = {
                name: await _measure_throughput(name, BLAST, Path(root) / name)
                for name in THROUGHPUT_PROFILES
            }
            reconnect = await _measure_reconnect(
                RECONNECT_BACKLOG, Path(root) / "reconnect"
            )
        return (
            chaos_rows, equivalence, coin, restart_rows, storm, throughput,
            reconnect,
        )

    (
        chaos_rows, equivalence, coin, restart_rows, storm, throughput,
        reconnect,
    ) = asyncio.run(main())

    payload = bench_payload(
        {
            "smoke": SMOKE,
            "blast_messages": BLAST,
            "reconnect_backlog": RECONNECT_BACKLOG,
            "gates": [
                "every chaos profile keeps split-input agreement safe "
                "under the armed invariant monitor",
                "socket decisions are bit-identical to the simulator's",
                "every throughput run delivered exactly-once in order",
                f"the {' and '.join(FIFO_PROFILES)} throughput runs resend "
                f"0 frames on one connection",
                "kill -9 -> journal relaunch -> rejoin reaches the no-kill "
                "decision under every chaos profile",
                "impostor HELLO storm never stalls honest agreement",
                f"one clean n=4 SVSS coin over sockets sends <= "
                f"{COIN_FRAME_BUDGET} DATA frames with 0 retransmits",
                f"that coin's decode memo answers >= {COIN_MEMO_HIT_SHARE} "
                f"of RB-value lookups and leaves the wire at "
                f"{COIN_WIRE_BYTES[0]}..{COIN_WIRE_BYTES[1]} bytes",
            ],
        },
        chaos_safety=chaos_rows,
        sim_equivalence=equivalence,
        svss_coin=coin,
        restart_lifecycle=restart_rows,
        impostor_storm=storm,
        throughput=throughput,
        reconnect=reconnect,
    )
    path = write_bench_json("net", payload)

    emit("Socket transport: throughput per chaos profile "
         f"({BLAST} msgs, one directed link)")
    for name in THROUGHPUT_PROFILES:
        row = throughput[name]
        emit(
            f"  {name:10s} delivered in order   retx={row['retransmits']:<6d}"
            f" reconnects={row['reconnects']}"
        )
    emit(
        f"n=4 SVSS coin over sockets: {coin['data_frames']} DATA frames "
        f"(budget {COIN_FRAME_BUDGET}), {coin['wire_bytes']} wire bytes, "
        f"retx={coin['retransmits']}, "
        f"{coin['frames_per_logical_message']:.3f} frames per logical message; "
        f"decode memo {coin['decode_memo']['hits']} hits / "
        f"{coin['decode_memo']['misses']} misses "
        f"(share {coin['decode_memo']['hit_share']:.3f}, gate >= "
        f"{COIN_MEMO_HIT_SHARE}), {coin['decode_memo']['entries']} entries / "
        f"{coin['decode_memo']['bytes']} bytes"
    )
    emit(
        f"reconnect recovery: {reconnect['backlog_frames']} queued frames "
        f"drained in order after restart, reconnects={reconnect['reconnects']}"
    )
    emit(
        "chaos-safety matrix: "
        + ", ".join(f"{k}:ok" for k in sorted(chaos_rows))
    )
    emit(
        "restart lifecycle (kill -9 -> journal rejoin): "
        + ", ".join(
            f"{k}:ok" for k in sorted(restart_rows) if k != "baseline"
        )
    )
    emit(
        f"impostor storm: {storm['auth_rejected']} forged HELLOs rejected, "
        f"agreement reached; artifact: {path.name}"
    )
