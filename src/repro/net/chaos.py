"""ChaosProxy: seeded fault injection on real TCP links.

The network analogue of the simulator's adversarial schedulers: where
``VoteBalancingScheduler`` / ``CoinRevealEclipseScheduler`` pick *which*
simulated event fires next, the chaos layer decides what happens to
each *frame* crossing a directed link — dropped, delayed, duplicated,
reordered, black-holed by a partition, or squeezed through a slow link.
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
delay and the proxy may drop, but the seq/ack layer must still make each
honest link *reliable eventually*.

What each knob hits:

* ``drop``/``duplicate``/``reorder`` apply to DATA frames only (the
  logical messages); dropping handshakes would only slow reconnection
  without exercising anything new.  HELLO/CHALLENGE/AUTH are control
  path for the same reason: the authenticated handshake crosses a chaos
  link delayed at worst, never faulted, so journal-backed rejoins under
  every profile still converge.
* ``min_delay``/``delay`` apply to every forwarded frame (a slow link
  slows everything crossing it), preserving FIFO: release times are
  monotone per link unless ``reorder`` fires, which pushes one frame
  behind its successors.
* an active partition swallows *all* forward frames, heartbeats
  included, so the sender's idle-timeout detector sees a dead link and
  its supervisor cycles — exactly the failure a real partition causes.

Scripted partitions beyond a profile's timed one use
:meth:`ChaosProxy.block` / :meth:`ChaosProxy.unblock`.
"""

from __future__ import annotations

import asyncio
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

    #: Probability a DATA frame is silently discarded.
    drop: float = 0.0
    #: Extra per-frame latency: uniform in ``[min_delay, min_delay + delay]``.
    min_delay: float = 0.0
    delay: float = 0.0
    #: Probability a DATA frame is forwarded twice.
    duplicate: float = 0.0
    #: Probability a DATA frame is released behind its successors.
    reorder: float = 0.0
    #: Black-hole every frame until this many seconds after proxy start
    #: (0 = never partitioned); the link heals afterwards.
    partition_until: float = 0.0

    @property
    def faulty(self) -> bool:
        return bool(
            self.drop
            or self.min_delay
            or self.delay
            or self.duplicate
            or self.reorder
            or self.partition_until
        )


@dataclass(frozen=True)
class ChaosProfile:
    """A named, parameter-free chaos scenario: maps each directed link to
    its :class:`LinkPolicy` given the system size."""

    name: str
    description: str
    #: ``policy(src, dst, n) -> LinkPolicy``
    policy: "object"
    #: Profiles that only delay/partition-and-heal preserve liveness; a
    #: profile that drops forever still preserves *safety* (the seq/ack
    #: layer retransmits, so liveness holds too at these rates — but the
    #: flag records which profiles the liveness gate may time against).
    bounded: bool = True

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
#: profile must keep the monitor verdict violation-free; the ``bounded``
#: ones additionally carry the liveness gate.
CHAOS_PROFILES: dict[str, ChaosProfile] = {
    "none": ChaosProfile(
        "none", "clean network; the baseline", lambda s, d, n: LinkPolicy()
    ),
    "drop": ChaosProfile(
        "drop",
        "5% of DATA frames vanish on every link",
        lambda s, d, n: LinkPolicy(drop=0.05),
    ),
    "delay": ChaosProfile(
        "delay",
        "uniform 0-50ms extra latency per frame",
        lambda s, d, n: LinkPolicy(delay=0.05),
    ),
    "duplicate": ChaosProfile(
        "duplicate",
        "10% of DATA frames are forwarded twice",
        lambda s, d, n: LinkPolicy(duplicate=0.10),
    ),
    "reorder": ChaosProfile(
        "reorder",
        "10% of DATA frames released behind their successors",
        lambda s, d, n: LinkPolicy(delay=0.02, reorder=0.10),
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
        "drop+delay+duplicate+reorder all at once, at low rates",
        lambda s, d, n: LinkPolicy(
            drop=0.03, delay=0.03, duplicate=0.05, reorder=0.05
        ),
    ),
}


@dataclass
class LinkStats:
    forwarded: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
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
    def _rng_for(self, src: int) -> Random:
        # Same string-keyed derivation idiom as ``SystemConfig.derive_rng``.
        return Random(f"{self.seed}:chaos:{src}->{self.dst_pid}")

    def _link_stats(self, src: int) -> LinkStats:
        stats = self.stats.get(src)
        if stats is None:
            stats = self.stats[src] = LinkStats()
        return stats

    def _partition_active(self, src: int, policy: LinkPolicy, now: float) -> bool:
        if src in self._blocked:
            return True
        if not policy.partition_until:
            return False
        return now - self._started_at < policy.partition_until

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

        Release times are tracked per connection so delays preserve FIFO
        unless ``reorder`` deliberately breaks it; writes are scheduled
        with ``call_later`` against the shared upstream writer (sync
        ``write`` is safe to call from callbacks).
        """
        parser = FrameParser()
        loop = asyncio.get_running_loop()
        src: int | None = None
        policy = LinkPolicy()
        rng = Random(0)
        stats = LinkStats()
        last_release = 0.0
        while True:
            data = await client_reader.read(65536)
            if not data:
                return
            now = loop.time()
            for ftype, body in parser.feed(data):
                frame = encode_frame(ftype, body)
                if ftype == FRAME_HELLO and src is None:
                    src = self._learn_src(body)
                    if src is not None:
                        policy = self.profile.link_policy(src, self.dst_pid, self.n)
                        rng = self._rng_for(src)
                        stats = self._link_stats(src)
                if src is not None and self._partition_active(src, policy, now):
                    stats.partitioned += 1
                    continue
                copies = 1
                if ftype == FRAME_DATA:
                    if rng.random() < policy.drop:
                        stats.dropped += 1
                        continue
                    if rng.random() < policy.duplicate:
                        copies = 2
                        stats.duplicated += 1
                release = now
                if policy.min_delay or policy.delay:
                    release += policy.min_delay + rng.random() * policy.delay
                # FIFO unless reorder: never release before a prior frame.
                release = max(release, last_release)
                if ftype == FRAME_DATA and rng.random() < policy.reorder:
                    # Push this frame behind whatever follows it shortly.
                    release += 0.02 + policy.delay
                    stats.reordered += 1
                else:
                    last_release = release
                for _ in range(copies):
                    stats.forwarded += 1
                    if release <= now:
                        up_writer.write(frame)
                    else:
                        loop.call_at(release, self._write_late, up_writer, frame)
            if up_writer.transport is not None:
                await up_writer.drain()

    @staticmethod
    def _write_late(writer, frame: bytes) -> None:
        if not writer.transport.is_closing():
            writer.write(frame)

    @staticmethod
    def _learn_src(body: bytes) -> int | None:
        hello = decode_control(FRAME_HELLO, body)
        if hello is not None and hello[2] == PROTO_VERSION:
            return hello[0]
        return None
