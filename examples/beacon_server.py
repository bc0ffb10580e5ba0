#!/usr/bin/env python3
"""A height-indexed randomness-beacon *server* over real TCP sockets.

Where ``randomness_beacon.py`` runs the shunning common coin inside the
simulator, this example serves it over the actual network transport
(:mod:`repro.net`): four protocol processes connected by asyncio TCP on
localhost flip the full MW-SVSS coin once per *height*, and a beacon
front-end answers client requests for ``height -> bit``.

Two robustness properties are on display:

* **request queueing** — clients may ask for any height, in any order,
  before it exists; requests park in per-height queues and resolve the
  moment that height's flip completes (never out of order, never lost);
* **crash survival** — one process's transport is scripted to crash
  mid-stream: the surviving quorum (n - t = 3) keeps producing heights,
  and after the crashed process reconnects (epoch handshake + seq
  resync, see ``docs/NETWORK.md``) it rejoins the very next height.

Run:  python examples/beacon_server.py
"""

import asyncio

from repro import SystemConfig
from repro.net.cluster import NetCluster
from repro.net.transport import TransportConfig

HEIGHTS = 4
CRASH_PID = 3
CRASH_BEFORE_HEIGHT = 2  # crash during this height, revive for the next

TCONF = TransportConfig(
    connect_timeout=0.5,
    backoff_base=0.02,
    backoff_max=0.2,
    heartbeat_interval=0.2,
    idle_timeout=3.0,
    down_after=1.0,
)


class BeaconServer:
    """Serve ``height -> coin bit`` with request queueing.

    ``request(height)`` returns a future usable at any time; it resolves
    when the beacon reaches that height.  One coin flip per height runs
    over the cluster's real sockets.
    """

    def __init__(self, cluster: NetCluster):
        self.cluster = cluster
        self.chain: dict[int, int] = {}
        self._waiters: dict[int, list[asyncio.Future]] = {}

    def request(self, height: int) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        if height in self.chain:
            future.set_result(self.chain[height])
        else:
            self._waiters.setdefault(height, []).append(future)
        return future

    async def produce(self, height: int, faulty: set | None = None) -> int:
        outputs = await self.cluster.flip_coin(
            session=height, timeout=120, faulty=faulty
        )
        live = sorted(outputs)
        values = {outputs[pid] for pid in live}
        # A split output is a legal (probability <= epsilon) coin outcome;
        # the beacon canonicalizes by majority so the chain stays total.
        bit = max(values, key=lambda v: sum(outputs[p] == v for p in live))
        self.chain[height] = bit
        for future in self._waiters.pop(height, []):
            if not future.done():
                future.set_result(bit)
        tag = "unanimous" if len(values) == 1 else f"split {values} -> {bit}"
        print(f"  height {height}: outputs {outputs}  [{tag}]")
        return bit


async def client(name: str, beacon: BeaconServer, heights: list[int]) -> None:
    """A beacon consumer asking for heights out of order, ahead of time."""
    for height in heights:
        bit = await beacon.request(height)
        print(f"  client {name}: beacon[{height}] = {bit}")


async def main() -> None:
    config = SystemConfig(n=4, seed=11)
    cluster = NetCluster(config, tconfig=TCONF)
    await cluster.start()
    beacon = BeaconServer(cluster)
    print(f"beacon server: n={config.n}, t={config.t}, "
          f"{HEIGHTS} heights over real TCP")
    print(f"scripted crash: pid {CRASH_PID} transport dies during height "
          f"{CRASH_BEFORE_HEIGHT}, reconnects for height "
          f"{CRASH_BEFORE_HEIGHT + 1}")
    print()

    # Clients queue requests before any height exists — out of order and
    # ahead of production; the queues must serve them all.
    clients = asyncio.gather(
        client("A", beacon, [0, 1, 2, 3]),
        client("B", beacon, [3, 0]),
        client("C", beacon, [2]),
    )

    try:
        for height in range(HEIGHTS):
            faulty = None
            if height == CRASH_BEFORE_HEIGHT:
                print(f"  !! killing pid {CRASH_PID}'s transport")
                await cluster.kill_node(CRASH_PID)
                faulty = {CRASH_PID}
            elif height == CRASH_BEFORE_HEIGHT + 1:
                print(f"  !! reviving pid {CRASH_PID}'s transport")
                await cluster.revive_node(CRASH_PID)
            await beacon.produce(height, faulty=faulty)
        await asyncio.wait_for(clients, timeout=10)
    finally:
        await cluster.close()

    bits = [beacon.chain[h] for h in range(HEIGHTS)]
    print()
    print(f"beacon chain: {bits}")
    print("every queued request was served, across a transport crash and")
    print("reconnect — the quorum of n - t processes kept the chain alive.")


if __name__ == "__main__":
    asyncio.run(main())
