"""In-process socket clusters: n nodes, one event loop, real TCP.

The test/benchmark harness of :mod:`repro.net`.  A :class:`NetCluster`
builds one :class:`~repro.net.transport.NetworkNode` per process, wires
them over 127.0.0.1 sockets (optionally through one
:class:`~repro.net.chaos.ChaosProxy` per destination), assembles the
protocol substrate on every host, and drives agreements (through the
simulator's own :class:`~repro.core.api.AgreementDriver`) and coin flips
to completion.  All n processes share the Python process, so the
:class:`~repro.sim.monitor.InvariantMonitor` plugs in unchanged: every node
sits in one :class:`~repro.net.transport.NetContext`, which offers the
monitor's runtime surface (``config``/``host(pid)``/``now``/``monitor``)
and whose one change event carries the cluster's waits.

For processes that do not share an address space, use
:mod:`repro.net.launch`: its parent feeds the children's reports to the
same monitor, so one judge checks every run.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.config import SystemConfig
from repro.core.api import (
    DEFAULT_INSTANCE,
    AgreementDriver,
    build_node_modules,
    make_node_coin,
    normalize_inputs,
)
from repro.errors import ConfigurationError, SimulationError
from repro.net.chaos import CHAOS_PROFILES, ChaosProfile, ChaosProxy
from repro.net.transport import NetContext, NetworkNode, TransportConfig


def resolve_profile(chaos: "str | ChaosProfile | None") -> ChaosProfile | None:
    if chaos is None:
        return None
    if isinstance(chaos, ChaosProfile):
        return chaos
    try:
        return CHAOS_PROFILES[chaos]
    except KeyError:
        raise ConfigurationError(
            f"unknown chaos profile {chaos!r}; "
            f"known: {sorted(CHAOS_PROFILES)}"
        ) from None


class NetCluster:
    """n protocol processes over real localhost TCP, driven to completion.

    Usage::

        cluster = NetCluster(SystemConfig(n=4, seed=7), chaos="reset")
        await cluster.start()
        decisions = await cluster.run_agreement([1, 1, 1, 1])
        await cluster.close()

    ``chaos`` names a profile from
    :data:`~repro.net.chaos.CHAOS_PROFILES` (or passes one directly);
    every inter-node link then crosses that destination's proxy.

    Every node journals to ``journal_dir``; when it is omitted the cluster
    journals into a temporary directory it owns and removes at
    :meth:`close`.
    """

    def __init__(
        self,
        config: SystemConfig,
        tconfig: TransportConfig | None = None,
        chaos: "str | ChaosProfile | None" = None,
        monitor=None,
        journal_dir: "str | Path | None" = None,
    ):
        self.config = config
        self.tconfig = tconfig or TransportConfig()
        self._own_journal_dir = None
        if journal_dir is None:
            self._own_journal_dir = tempfile.TemporaryDirectory(
                prefix="repro-net-j-"
            )
            journal_dir = self._own_journal_dir.name
        self.journal_dir = Path(journal_dir)
        self.profile = resolve_profile(chaos)
        self.context = NetContext(config)
        self.nodes: dict[int, NetworkNode] = {}
        self.proxies: dict[int, ChaosProxy] = {}
        self._started = False
        if monitor is not None:
            monitor.install(self.context)
        self.monitor = monitor

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Bind every node, wire the address book (through proxies when a
        chaos profile is active) and build the protocol substrate."""
        config = self.config
        for pid in config.pids:
            node = NetworkNode(
                config, pid, self._journal_path(pid), tconfig=self.tconfig
            )
            self.context.register(node)
            self.nodes[pid] = node
            await node.start_server()
        reachable: dict[int, tuple[str, int]] = {}
        for pid, node in self.nodes.items():
            if self.profile is not None:
                proxy = ChaosProxy(
                    pid,
                    (self.tconfig.bind_host, node.port),
                    self.profile,
                    config.seed,
                    config.n,
                    bind_host=self.tconfig.bind_host,
                )
                await proxy.start()
                self.proxies[pid] = proxy
                reachable[pid] = (self.tconfig.bind_host, proxy.port)
            else:
                reachable[pid] = (self.tconfig.bind_host, node.port)
        for node in self.nodes.values():
            node.set_peers(reachable)
            node.start_peers()
        for node in self.nodes.values():
            build_node_modules(node.host)
        self._started = True

    def _journal_path(self, pid: int) -> Path:
        return self.journal_dir / f"node-{pid}.journal"

    async def close(self) -> None:
        for node in self.nodes.values():
            await node.close()
        for proxy in self.proxies.values():
            await proxy.close()
        if self._own_journal_dir is not None:
            self._own_journal_dir.cleanup()

    # -- fault scripting ---------------------------------------------------
    async def kill_node(self, pid: int) -> None:
        """Take one node's transport down (sockets die, protocol state
        survives) — the network half of a crash."""
        await self.nodes[pid].stop_transport()

    async def revive_node(self, pid: int) -> None:
        """Bring a killed node's transport back; peers resync via the
        epoch handshake and retransmit everything unacked."""
        await self.nodes[pid].restart_transport()

    async def restart_node(self, pid: int) -> None:
        """Full node replacement from its journal, the in-process ``kill
        -9`` + relaunch: the old :class:`NetworkNode` and its modules are
        discarded; a new one opens the same journal (what survives), resumes
        its link seqs under a fresh epoch and rebinds the same port."""
        old = self.nodes[pid]
        addresses = dict(old._addresses)
        port = old.port
        await old.close()
        node = NetworkNode(
            self.config, pid, self._journal_path(pid), tconfig=self.tconfig
        )
        self.context.register(node)
        self.nodes[pid] = node
        await node.start_server(port)
        node.set_peers(addresses)
        node.start_peers()
        build_node_modules(node.host)

    # -- waits -------------------------------------------------------------
    async def wait_for(self, predicate, timeout: float = 60.0) -> None:
        """Wait until ``predicate()`` holds cluster-wide: the context's one
        wait, woken by any node's notification."""
        await self.context.wait_for(predicate, timeout)

    # -- protocol drivers --------------------------------------------------
    def _coin_for(self, pid: int, coin: object, instance: object):
        return make_node_coin(self.nodes[pid].host, coin, instance)

    async def run_agreement(
        self,
        inputs: "list[int] | dict[int, int]",
        coin: object = "svss",
        instance: object = DEFAULT_INSTANCE,
        timeout: float = 60.0,
        faulty: "set[int] | None" = None,
    ) -> dict[int, int]:
        """One Byzantine agreement over the wire; returns pid -> decision.

        ``faulty`` pids do not participate at all (fail-stop from the
        start) and are not waited on — the liveness bar is ``n - t``
        honest deciders, the paper's bound.
        """
        if not self._started:
            raise SimulationError("cluster not started")
        inputs = normalize_inputs(inputs, self.config)
        live = [pid for pid in self.config.pids if pid not in (faulty or ())]
        driver = AgreementDriver(
            [self.nodes[pid].host for pid in live],
            {instance: inputs},
            {instance: {pid: self._coin_for(pid, coin, instance) for pid in live}},
        )
        await self.wait_for(driver.finished, timeout=timeout)
        for process in driver.processes[instance].values():
            process.close()
        return driver.decisions[instance]

    async def flip_coin(
        self,
        session: object = 0,
        timeout: float = 60.0,
        faulty: "set[int] | None" = None,
    ) -> dict[int, int]:
        """One full SVSS shunning-common-coin invocation over the wire."""
        if not self._started:
            raise SimulationError("cluster not started")
        self.config.require_optimal_resilience()
        faulty = faulty or set()
        live = [pid for pid in self.config.pids if pid not in faulty]
        csid = ("cc", "solo", session)
        outputs: dict[int, int] = {}
        coins = {pid: self._coin_for(pid, "svss", DEFAULT_INSTANCE) for pid in live}
        for pid in live:
            with self.nodes[pid].runtime.coalescing_step():
                coins[pid].join(csid)
                coins[pid].get(csid, lambda v, pid=pid: outputs.setdefault(pid, v))
                coins[pid].release(csid)
        await self.wait_for(
            lambda: all(pid in outputs for pid in live), timeout=timeout
        )
        return outputs

    # -- stats -------------------------------------------------------------
    def stats(self) -> dict:
        memos = [node.memo.stats() for node in self.nodes.values()]
        return {
            "auth_rejected": sum(
                node.auth_rejected for node in self.nodes.values()
            ),
            "journal_replayed": sum(
                node.journal.state.replayed for node in self.nodes.values()
            ),
            "frame_errors": sum(
                sum(node.frame_errors.values())
                for node in self.nodes.values()
            ),
            "decode_memo": {
                key: sum(memo[key] for memo in memos)
                for key in ("hits", "misses", "entries", "bytes")
            },
            "nodes": {pid: node.stats() for pid, node in self.nodes.items()},
            "chaos": {
                pid: {
                    src: vars(stats)
                    for src, stats in sorted(proxy.stats.items())
                }
                for pid, proxy in sorted(self.proxies.items())
            },
        }
