"""Chaos-proxy tests: every profile in the catalogue keeps agreement
safe over real sockets, and scripted partitions heal into liveness.

These runs push actual frames through a :class:`ChaosProxy` per
destination; the :class:`InvariantMonitor` rides along and raises *at*
any violating event, so a passing test certifies safety under that
profile, not merely termination.  Every node is journaled and carries
the whole substrate; local coins keep most runs in test-scale wall
clock (an idle VSS manager sends nothing); the slow-marked split-input
agreements at the end run the full MW-SVSS coin — now that the step
window packs it into a few thousand frames — under the same monitor.

Between those sit the link-level checks of the fault model itself: a
delay never reorders, and a reset is repaired by the HELLO/WELCOME
resync alone — two planted resync bugs show the check can fail.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.config import SystemConfig
from repro.net.chaos import CHAOS_PROFILES, ChaosProfile, ChaosProxy, LinkPolicy
from repro.net.cluster import NetCluster, resolve_profile
from repro.net.transport import NetworkNode, PeerConnection, TransportConfig
from repro.errors import ConfigurationError
from repro.sim.monitor import InvariantMonitor


FAST = TransportConfig(
    connect_timeout=0.5,
    backoff_base=0.02,
    backoff_max=0.2,
    heartbeat_interval=0.1,
    idle_timeout=1.0,
    down_after=0.5,
)


async def _run_profile(profile: str, inputs, seed: int):
    monitor = InvariantMonitor()
    cluster = NetCluster(
        SystemConfig(n=4, seed=seed),
        tconfig=FAST,
        chaos=profile,
        monitor=monitor,
    )
    await cluster.start()
    try:
        decisions = await cluster.run_agreement(
            inputs, coin="local", instance=f"chaos-{profile}", timeout=45
        )
    finally:
        stats = cluster.stats()
        await cluster.close()
    return decisions, monitor.verdict(), stats


@pytest.mark.parametrize("profile", sorted(CHAOS_PROFILES))
def test_profile_preserves_agreement_safety(profile):
    """Split inputs under every chaos profile: all four processes decide,
    and they decide the same bit.  The monitor would have raised at any
    agreement/validity violation before we ever read the verdict."""

    async def main():
        decisions, verdict, _ = await _run_profile(profile, [0, 1, 0, 1], seed=400)
        assert len(decisions) == 4
        assert len(set(decisions.values())) == 1
        assert len(verdict["decisions"]) == 4

    asyncio.run(main())


@pytest.mark.parametrize("profile", ["reset", "flaky"])
def test_profile_preserves_validity_under_unanimity(profile):
    async def main():
        decisions, verdict, _ = await _run_profile(profile, [1, 1, 1, 1], seed=401)
        assert decisions == {1: 1, 2: 1, 3: 1, 4: 1}
        assert {value for _, _, value, _ in verdict["decisions"]} == {1}

    asyncio.run(main())


def test_chaos_actually_fires():
    """A passing chaos run proves nothing if the proxy forwarded cleanly;
    pin that the seeded fault injection really cut connections, and that
    the resync repaired every cut without a gap."""

    async def main():
        _, _, stats = await _run_profile("reset", [0, 1, 0, 1], seed=402)
        links = [
            link for proxy in stats["chaos"].values() for link in proxy.values()
        ]
        assert sum(link["forwarded"] for link in links) > 0
        assert sum(link["resets"] for link in links) > 0
        assert stats["frame_errors"] == 0

    asyncio.run(main())


def test_scripted_partition_blocks_quorum_then_heals():
    """Split 4 processes 2-2 with scripted ``block``: no decision is
    possible (quorum is 3), and nothing may be decided while split; after
    ``unblock`` the senders' idle timeouts retire the severed connections,
    the resync resends across the healed links and every process decides
    — partition-heal liveness."""

    async def main():
        cluster = NetCluster(
            SystemConfig(n=4, seed=403),
            tconfig=FAST,
            chaos="none",  # clean policies, but proxies exist to script
        )
        await cluster.start()
        try:
            halves = ({1, 2}, {3, 4})
            for dst, proxy in cluster.proxies.items():
                for src in cluster.config.pids:
                    if (src in halves[0]) != (dst in halves[0]):
                        proxy.block(src)

            task = asyncio.get_running_loop().create_task(
                cluster.run_agreement(
                    [0, 1, 0, 1], coin="local", instance="heal", timeout=45
                )
            )
            await asyncio.sleep(1.0)
            assert not task.done()  # split == no quorum == no liveness

            for proxy in cluster.proxies.values():
                for src in cluster.config.pids:
                    proxy.unblock(src)
            decisions = await task
            assert len(decisions) == 4
            assert len(set(decisions.values())) == 1
        finally:
            await cluster.close()

    asyncio.run(main())


def test_unknown_profile_is_rejected():
    with pytest.raises(ConfigurationError):
        resolve_profile("gremlins")


def test_profile_catalogue_shape():
    """Every catalogue entry is self-describing and produces per-link
    policies; the clean profile is recognizably clean."""
    for name, profile in CHAOS_PROFILES.items():
        assert profile.name == name
        assert profile.description
        policy = profile.link_policy(1, 2, 4)
        assert isinstance(policy, LinkPolicy)
    clean = LinkPolicy()
    assert CHAOS_PROFILES["none"].link_policy(1, 2, 4) == clean
    assert CHAOS_PROFILES["reset"].link_policy(1, 2, 4).reset > 0
    assert CHAOS_PROFILES["partition"].link_policy(1, 3, 4).partition_until > 0
    assert CHAOS_PROFILES["partition"].link_policy(1, 2, 4) == clean


@pytest.mark.parametrize("profile", ["reset", "flaky"])
def test_restart_node_rejoins_under_chaos(profile, tmp_path):
    """Journal replay under chaos (the tentpole's composition check): run
    agreement, rebuild one node cold from its journal through a faulty
    proxy, and agree again — the rejoined node replays its journal,
    re-authenticates, and decides with everyone else."""

    async def main():
        cluster = NetCluster(
            SystemConfig(n=4, seed=404),
            tconfig=FAST,
            chaos=profile,
            journal_dir=tmp_path,
        )
        await cluster.start()
        try:
            first = await cluster.run_agreement(
                [1, 1, 1, 1], coin="local", instance="pre-restart", timeout=45
            )
            assert set(first.values()) == {1}
            await cluster.restart_node(3)
            node = cluster.nodes[3]
            assert node.journal.state.replayed > 0
            assert node.epoch > 1
            second = await cluster.run_agreement(
                [0, 0, 0, 0], coin="local", instance="post-restart", timeout=45
            )
            assert set(second.values()) == {0}
            assert len(second) == 4  # the rejoined node decided too
        finally:
            await cluster.close()

    asyncio.run(main())


# ---------------------------------------------------------------------------
# The fault model on one link: a delay keeps FIFO, a reset is resynced
# ---------------------------------------------------------------------------


async def _proxied_pair(tmp_path, profile: ChaosProfile, seed: int, tconfig=FAST):
    """Nodes 1 and 2 (n = 2), the 1 -> 2 direction through a chaos proxy
    seeded with ``seed``; the caller starts the peers."""
    config = SystemConfig(n=2, t=0, seed=seed)
    a = NetworkNode(config, 1, tmp_path / "a.journal", tconfig=tconfig)
    b = NetworkNode(config, 2, tmp_path / "b.journal", tconfig=tconfig)
    await a.start_server()
    await b.start_server()
    proxy = ChaosProxy(2, ("127.0.0.1", b.port), profile, seed=seed, n=2)
    await proxy.start()
    a.set_peers({1: ("127.0.0.1", a.port), 2: ("127.0.0.1", proxy.port)})
    b.set_peers({1: ("127.0.0.1", a.port), 2: ("127.0.0.1", b.port)})
    return a, b, proxy


@pytest.mark.parametrize("profile", ["delay", "slow_link"])
def test_a_delay_never_reorders_a_link(profile, tmp_path):
    """4 000 frames through a delaying proxy arrive in order on the one
    connection, and nothing is resent: the proxy releases a connection's
    frames through one FIFO.  One timer per frame did not keep that:
    clamped release times gave many frames one deadline, and asyncio's
    timer heap does not keep equal deadlines in order."""

    async def main():
        a, b, proxy = await _proxied_pair(
            tmp_path, CHAOS_PROFILES[profile], seed=9000
        )
        got = []
        b.host.register_handler("m", lambda src, msg: got.append(msg[1]))
        a.start_peers()
        b.start_peers()
        for i in range(4000):
            a.dispatch_out(2, ("m", i))
        try:
            await b.wait_for(lambda: len(got) >= 4000, timeout=30)
        finally:
            await a.close()
            await b.close()
            await proxy.close()
        assert got == list(range(4000))
        assert b.frame_errors == {}
        stats = a.peers[2].stats
        assert (stats.retransmits, stats.reconnects) == (0, 1)

    asyncio.run(main())


#: Sub-payloads per envelope: nine encode to three frames of three under
#: a 256-byte frame body.
ENVELOPE = 9
#: The chaos seed whose first reset cuts seq 2 — the second frame of the
#: first envelope — on the link's first connection.
CUT_SEED = 1


async def _cut_envelope(tmp_path, monkeypatch, plant=None):
    """Two envelopes, split into frames 1-3 and 4-6 by ``max_frame_body``
    and queued before the link comes up, cross a proxy that resets 30 %
    of DATA frames.  ``plant`` (a planted bug) maps the cursor of each
    WELCOME after the first to the seq the sender resyncs from.  Returns
    what arrived, the cursors the WELCOMEs carried, and the receiver's
    frame errors."""
    welcomes = []
    real = PeerConnection._await_welcome

    async def await_welcome(self, *args):
        cursor = await real(self, *args)
        if self.node.pid == 1:
            welcomes.append(cursor)
            if plant is not None and len(welcomes) > 1:
                cursor = plant(cursor)
        return cursor

    monkeypatch.setattr(PeerConnection, "_await_welcome", await_welcome)
    profile = ChaosProfile(
        "cut", "30% resets", lambda s, d, n: LinkPolicy(reset=0.3)
    )
    a, b, proxy = await _proxied_pair(
        tmp_path, profile, seed=CUT_SEED,
        tconfig=dataclasses.replace(FAST, max_frame_body=256),
    )
    got = []
    b.host.register_handler("m", lambda src, msg: got.append(msg[1]))
    for first in (0, ENVELOPE):
        with a.runtime.coalescing_step():
            for i in range(first, first + ENVELOPE):
                a.host.send(2, ("m", i, "x" * 60), "test")
    peer = a.peers[2]
    assert peer.stats.sent == 6
    a.start_peers()
    b.start_peers()
    try:
        await a.wait_for(
            lambda: not peer.queue and b._inbox.empty(), timeout=20
        )
    finally:
        await a.close()
        await b.close()
        await proxy.close()
    assert proxy.stats[1].resets > 0
    return got, welcomes, b.frame_errors


def test_a_reset_mid_envelope_is_resynced_exactly_once(tmp_path, monkeypatch):
    """The reset cuts the second of an envelope's three frames: the frame
    before it was delivered, the rest of the envelope was not.  The
    WELCOME's cursor resumes the link at the cut frame, so every
    sub-payload arrives once, in order, and no gap ever opens."""
    got, welcomes, errors = asyncio.run(_cut_envelope(tmp_path, monkeypatch))
    assert welcomes[:2] == [1, 2]
    assert got == list(range(2 * ENVELOPE))
    assert errors == {}


@pytest.mark.parametrize(
    "plant",
    [
        lambda cursor: cursor + 1,
        # Resume at the first envelope starting at or after the cursor
        # (envelopes start at seqs 1, 4 and 7).
        lambda cursor: 3 * ((cursor + 1) // 3) + 1,
    ],
    ids=["cursor-off-by-one", "skip-rest-of-envelope"],
)
def test_a_planted_resync_bug_loses_messages(tmp_path, monkeypatch, plant):
    """The check above can fail: a sender that resyncs one frame late, or
    from the envelope after the cut one, loses sub-payloads.  The
    receiver sees the gap first, counts it and closes the link."""
    got, welcomes, errors = asyncio.run(
        _cut_envelope(tmp_path, monkeypatch, plant)
    )
    assert welcomes[:2] == [1, 2]
    assert errors["gap"] > 0
    assert got[:3] == [0, 1, 2]  # the frame ahead of the cut
    assert got != list(range(2 * ENVELOPE))
    assert got == sorted(set(got))  # what does arrive is in order, once


# ---------------------------------------------------------------------------
# The paper's protocol proper: split inputs, SVSS shunning coin, sockets
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("profile", [None, "reset", "flaky"])
def test_split_input_svss_agreement_under_the_armed_monitor(profile):
    """Unanimous inputs let validity alone fix the answer and the
    ``local`` coin bypasses VSS; this is neither: a 0/1 split decided
    through the SVSS common coin, every frame an envelope of session
    vectors, clean and through proxies that reset (and delay) links.
    The monitor raises at the first agreement, validity or shun-budget
    violation; ``frame_errors == 0`` says no resync ever left a gap."""

    async def main():
        monitor = InvariantMonitor()
        cluster = NetCluster(
            SystemConfig(n=4, seed=405),
            tconfig=FAST,
            chaos=profile,
            monitor=monitor,
        )
        await cluster.start()
        try:
            decisions = await cluster.run_agreement(
                [0, 1, 0, 1], coin="svss", timeout=120
            )
            stats = cluster.stats()
        finally:
            await cluster.close()
        assert set(decisions) == {1, 2, 3, 4}
        assert len(set(decisions.values())) == 1  # agreement
        assert set(decisions.values()) <= {0, 1}  # validity on a split
        # A violation raises inside the handler that caused it, which
        # kills that node's pump and times the run out: getting here with
        # all four decisions recorded is the zero-violation verdict.
        verdict = monitor.verdict()
        assert len(verdict["decisions"]) == 4
        assert verdict["shun_pairs"] == []  # nobody is byzantine
        assert stats["frame_errors"] == 0
        resets = sum(
            link["resets"]
            for proxy in stats["chaos"].values()
            for link in proxy.values()
        )
        assert (resets > 0) == (profile is not None)
        for node in stats["nodes"].values():
            assert node["envelopes_pushed"] > 0 and node["svec_packed"] > 0

    asyncio.run(main())
