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
"""

from __future__ import annotations

import asyncio

import pytest

from repro.config import SystemConfig
from repro.net.chaos import CHAOS_PROFILES, LinkPolicy
from repro.net.cluster import NetCluster, resolve_profile
from repro.net.transport import TransportConfig
from repro.errors import ConfigurationError
from repro.sim.monitor import InvariantMonitor


FAST = TransportConfig(
    connect_timeout=0.5,
    backoff_base=0.02,
    backoff_max=0.2,
    heartbeat_interval=0.1,
    idle_timeout=1.0,
    rto=0.1,
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


@pytest.mark.parametrize("profile", ["drop", "flaky"])
def test_profile_preserves_validity_under_unanimity(profile):
    async def main():
        decisions, verdict, _ = await _run_profile(profile, [1, 1, 1, 1], seed=401)
        assert decisions == {1: 1, 2: 1, 3: 1, 4: 1}
        assert {value for _, _, value, _ in verdict["decisions"]} == {1}

    asyncio.run(main())


def test_chaos_actually_fires():
    """A passing chaos run proves nothing if the proxy forwarded cleanly;
    pin that the seeded fault injection really dropped and duplicated."""

    async def main():
        _, _, stats = await _run_profile("flaky", [0, 1, 0, 1], seed=402)
        links = [
            link for proxy in stats["chaos"].values() for link in proxy.values()
        ]
        assert sum(link["forwarded"] for link in links) > 0
        assert sum(link["dropped"] for link in links) > 0
        assert sum(link["duplicated"] for link in links) > 0

    asyncio.run(main())


def test_scripted_partition_blocks_quorum_then_heals():
    """Split 4 processes 2-2 with scripted ``block``: no decision is
    possible (quorum is 3), and nothing may be decided while split; after
    ``unblock`` the seq/ack layer retransmits across the healed links and
    every process decides — partition-heal liveness."""

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
    assert not CHAOS_PROFILES["none"].link_policy(1, 2, 4).faulty
    assert CHAOS_PROFILES["drop"].link_policy(1, 2, 4).faulty
    assert CHAOS_PROFILES["partition"].link_policy(1, 3, 4).partition_until > 0
    assert not CHAOS_PROFILES["partition"].link_policy(1, 2, 4).faulty


@pytest.mark.parametrize("profile", ["drop", "flaky"])
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
# The paper's protocol proper: split inputs, SVSS shunning coin, sockets
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("profile", [None, "drop", "reorder"])
def test_split_input_svss_agreement_under_the_armed_monitor(profile):
    """Unanimous inputs let validity alone fix the answer and the
    ``local`` coin bypasses VSS; this is neither: a 0/1 split decided
    through the SVSS common coin, every frame an envelope of session
    vectors, clean and through lossy / reordering proxies.  The monitor
    raises at the first agreement, validity or shun-budget violation."""

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
        for node in stats["nodes"].values():
            assert node["envelopes_pushed"] > 0 and node["svec_packed"] > 0

    asyncio.run(main())
