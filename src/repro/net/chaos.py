"""ChaosProxy: seeded fault injection on real TCP links.

The network analogue of the simulator's adversarial schedulers: where
``VoteBalancingScheduler`` / ``CoinRevealEclipseScheduler`` pick *which*
simulated event fires next, the chaos layer decides what happens to
each *frame* crossing a directed link — delayed, cut by a connection
reset, black-holed by a partition, or squeezed through a slow link.
Faults are drawn from a :class:`random.Random` seeded per directed link,
so a chaos run is reproducible from ``(seed, profile)`` alone.

Topology: one :class:`ChaosProxy` sits in front of each destination
node.  Every peer's address-book entry for that node points at the proxy
(:meth:`ChaosProxy.port`), which forwards to the node's real server
port.  The proxy is *frame-aware*: it parses the forward byte stream
with the same :class:`~repro.net.codec.FrameParser` the transport uses,
learns the sender pid from the forwarded HELLO, and applies that
directed link's :class:`LinkPolicy` to forward-path frames.  The reverse
path (WELCOMEs, ACKs, PONGs) is copied verbatim — chaos attacks the
message channel, not the transport's own control loop, which keeps the
fault model aligned with the paper's: an asynchronous adversary may
delay and the proxy may reset, but the seq/ack resync must still make
each honest link *reliable eventually*.

Faults are the ones TCP has: a connection delivers its bytes in order
and once, or it dies losing what was in flight.  What each knob hits:

* ``reset`` applies to DATA frames only (the logical messages): it cuts
  the connection at a seeded offset inside the frame, in stream order —
  the target reads every frame released ahead of the cut, then the
  torn bytes, then EOF — and closes both sockets.  HELLO/CHALLENGE/AUTH
  are control path: the authenticated handshake crosses a chaos link
  delayed at worst, never cut, so journal-backed rejoins under every
  profile still converge.
* ``min_delay``/``delay`` apply to every forwarded frame (a slow link
  slows everything crossing it).  Each connection releases its frames
  through one FIFO, so a delay never reorders.
* an active partition swallows *all* forward frames, heartbeats
  included, and a connection that lost a frame to it carries nothing
  more (a stream never skips bytes): the sender's idle-timeout detector
  sees a dead link and its supervisor cycles — exactly the failure a
  real partition causes.

Scripted partitions beyond a profile's timed one use
:meth:`ChaosProxy.block` / :meth:`ChaosProxy.unblock`.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from random import Random

from repro.net.codec import (
    FRAME_DATA,
    FRAME_HELLO,
    FrameParser,
    decode_control,
    encode_frame,
)
from repro.net.transport import PROTO_VERSION, cancel_tasks


@dataclass(frozen=True)
class LinkPolicy:
    """Fault parameters for one directed link (src -> dst)."""

    #: Probability a DATA frame cuts its connection (a reset).
    reset: float = 0.0
    #: Extra per-frame latency: uniform in ``[min_delay, min_delay + delay]``.
    min_delay: float = 0.0
    delay: float = 0.0
    #: Black-hole every frame until this many seconds after proxy start
    #: (0 = never partitioned); the link heals afterwards.
    partition_until: float = 0.0


@dataclass(frozen=True)
class ChaosProfile:
    """A named, parameter-free chaos scenario: maps each directed link to
    its :class:`LinkPolicy` given the system size."""

    name: str
    description: str
    #: ``policy(src, dst, n) -> LinkPolicy``
    policy: "object"

    def link_policy(self, src: int, dst: int, n: int) -> LinkPolicy:
        return self.policy(src, dst, n)


def _split(n: int) -> int:
    """Partition boundary: pids ``1..ceil(n/2)`` vs the rest."""
    return (n + 1) // 2


def _partition_policy(src: int, dst: int, n: int) -> LinkPolicy:
    crosses = (src <= _split(n)) != (dst <= _split(n))
    return LinkPolicy(partition_until=1.0 if crosses else 0.0)


def _slow_link_policy(src: int, dst: int, n: int) -> LinkPolicy:
    # Every link out of pid 1 crawls; the rest of the mesh is clean.
    if src == 1 and dst != 1:
        return LinkPolicy(min_delay=0.03, delay=0.02)
    return LinkPolicy()


#: The chaos-profile catalogue (documented in ``docs/NETWORK.md``).  Every
#: profile must keep the monitor verdict violation-free.
CHAOS_PROFILES: dict[str, ChaosProfile] = {
    "none": ChaosProfile(
        "none", "clean network; the baseline", lambda s, d, n: LinkPolicy()
    ),
    "reset": ChaosProfile(
        "reset",
        "1% of DATA frames cut their connection, on every link",
        lambda s, d, n: LinkPolicy(reset=0.01),
    ),
    "delay": ChaosProfile(
        "delay",
        "uniform 0-50ms extra latency per frame",
        lambda s, d, n: LinkPolicy(delay=0.05),
    ),
    "partition": ChaosProfile(
        "partition",
        "mesh split in half for 1s, then healed",
        _partition_policy,
    ),
    "slow_link": ChaosProfile(
        "slow_link",
        "every link out of pid 1 adds 30-50ms per frame",
        _slow_link_policy,
    ),
    "flaky": ChaosProfile(
        "flaky",
        "reset+delay at once, at lower rates: 0.5% resets, 0-30ms latency",
        lambda s, d, n: LinkPolicy(reset=0.005, delay=0.03),
    ),
}


@dataclass
class LinkStats:
    forwarded: int = 0
    resets: int = 0
    partitioned: int = 0


class ChaosProxy:
    """Frame-aware fault-injection proxy in front of one node.

    ``await proxy.start()`` binds the listening port; point every peer's
    address entry for ``dst_pid`` at ``(host, proxy.port)``.
    """

    def __init__(
        self,
        dst_pid: int,
        target: tuple[str, int],
        profile: ChaosProfile,
        seed: int,
        n: int,
        bind_host: str = "127.0.0.1",
    ):
        self.dst_pid = dst_pid
        self.target = target
        self.profile = profile
        self.seed = seed
        self.n = n
        self.bind_host = bind_host
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._started_at = 0.0
        self._blocked: set[int] = set()
        self.stats: dict[int, LinkStats] = {}
        self._rngs: dict[int, Random] = {}
        self._conns: set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> int:
        self._server = await asyncio.start_server(
            self._on_connection, self.bind_host, 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = asyncio.get_running_loop().time()
        return self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:
                pass
            self._server = None
        await cancel_tasks(list(self._conns))
        self._conns.clear()

    # -- scripted partitions ----------------------------------------------
    def block(self, src: int) -> None:
        """Black-hole the (src -> dst) link until :meth:`unblock`."""
        self._blocked.add(src)

    def unblock(self, src: int) -> None:
        self._blocked.discard(src)

    # -- internals ---------------------------------------------------------
    def _link(self, src: int) -> tuple[LinkPolicy, Random, LinkStats]:
        """The (src -> dst) link's policy, fault stream and counters.  The
        stream is the link's, drawn on across its connections: each
        connection resumes it, so a reset never repeats its cut point."""
        if src not in self.stats:
            self.stats[src] = LinkStats()
            # Same string-keyed derivation idiom as ``SystemConfig.derive_rng``.
            self._rngs[src] = Random(f"{self.seed}:chaos:{src}->{self.dst_pid}")
        policy = self.profile.link_policy(src, self.dst_pid, self.n)
        return policy, self._rngs[src], self.stats[src]

    def _partition_active(
        self, src: int | None, policy: LinkPolicy, now: float
    ) -> bool:
        return (
            src in self._blocked
            or now - self._started_at < policy.partition_until
        )

    async def _on_connection(self, client_reader, client_writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conns.add(task)
        try:
            await self._proxy_one(client_reader, client_writer)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._conns.discard(task)
            client_writer.close()
            try:
                await client_writer.wait_closed()
            except Exception:
                pass

    async def _proxy_one(self, client_reader, client_writer) -> None:
        try:
            up_reader, up_writer = await asyncio.open_connection(*self.target)
        except OSError:
            return
        reverse = asyncio.get_running_loop().create_task(
            self._reverse(up_reader, client_writer)
        )
        try:
            await self._forward(client_reader, up_writer)
        finally:
            await cancel_tasks([reverse])
            up_writer.close()
            try:
                await up_writer.wait_closed()
            except Exception:
                pass

    async def _reverse(self, up_reader, client_writer) -> None:
        """Target -> sender path: verbatim copy (control traffic)."""
        while True:
            data = await up_reader.read(65536)
            if not data:
                client_writer.close()
                return
            client_writer.write(data)
            await client_writer.drain()

    async def _forward(self, client_reader, up_writer) -> None:
        """Sender -> target path: parse frames, inject faults, forward.

        Frames queue on one release FIFO per connection, in the order
        they were read, each stamped with its release time; the FIFO's
        one writer (:meth:`_release`) writes what is due from the head,
        so a frame waits for its own time and for every frame ahead of
        it.  The end of the stream — the sender's EOF, or a reset's cut
        — queues behind them, and this returns (closing both sockets)
        only once the writer reached it.
        """
        parser = FrameParser()
        loop = asyncio.get_running_loop()
        fifo: deque[tuple[float, bytes | None]] = deque()
        due = asyncio.Event()
        writer = loop.create_task(self._release(fifo, due, up_writer))
        src: int | None = None
        policy = LinkPolicy()
        rng = Random(0)
        stats = LinkStats()
        severed = cut = False
        try:
            while not cut:
                data = await client_reader.read(65536)
                if not data:
                    break
                now = loop.time()
                for ftype, body in parser.feed(data):
                    if ftype == FRAME_HELLO and src is None:
                        src = self._learn_src(body)
                        if src is not None:
                            policy, rng, stats = self._link(src)
                    if severed or self._partition_active(src, policy, now):
                        severed = True
                        stats.partitioned += 1
                        continue
                    frame = encode_frame(ftype, body)
                    release = now + policy.min_delay + rng.random() * policy.delay
                    if ftype == FRAME_DATA and rng.random() < policy.reset:
                        stats.resets += 1
                        torn = rng.randrange(1, len(frame))
                        fifo.append((release, frame[:torn]))
                        cut = True
                        break
                    stats.forwarded += 1
                    fifo.append((release, frame))
                due.set()
            fifo.append((loop.time(), None))
            due.set()
            await writer
        finally:
            await cancel_tasks([writer])

    @staticmethod
    async def _release(fifo: deque, due: asyncio.Event, up_writer) -> None:
        """Write the FIFO's head while it is due, until the end-of-stream
        entry (``None``)."""
        loop = asyncio.get_running_loop()
        while True:
            if not fifo:
                due.clear()
                await due.wait()
                continue
            wait = fifo[0][0] - loop.time()
            if wait > 0:
                await asyncio.sleep(wait)
            now = loop.time()
            chunks = []
            while fifo and fifo[0][0] <= now:
                chunk = fifo.popleft()[1]
                if chunk is None:
                    up_writer.write(b"".join(chunks))
                    return
                chunks.append(chunk)
            up_writer.write(b"".join(chunks))
            await up_writer.drain()

    @staticmethod
    def _learn_src(body: bytes) -> int | None:
        hello = decode_control(FRAME_HELLO, body)
        if hello is not None and hello[2] == PROTO_VERSION:
            return hello[0]
        return None
