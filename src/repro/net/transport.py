"""The asyncio TCP transport: ``ProcessHost`` semantics over real sockets.

One :class:`NetworkNode` is one protocol process: it owns a
:class:`NetworkHost` (a real :class:`~repro.sim.process.ProcessHost`
subclass, so every ``ProtocolModule`` attaches unmodified), an asyncio
TCP server accepting inbound links, and one :class:`PeerConnection`
supervisor per peer for outbound traffic.  The :class:`NetRuntime`
facade implements exactly the runtime surface protocol modules consume
(:class:`~repro.sim.module.RuntimeABC`), and its outbound path is the
simulator's own step window (:mod:`repro.sim.window`): one inbox
delivery is one step, and everything the handlers send during it leaves
as **one DATA frame per destination** — session vectors packed, the
rest coalesced into an envelope (``docs/NETWORK.md``, "Aggregation on
the wire").

Every node has a :class:`NetContext`, the runtime surface it shares with
the nodes beside it: one clock (the running loop's ``time()``, the only
clock this package reads), the monitor, pid -> host, and one change event
with the one ``wait_for`` on it.  A lone node's context holds just itself;
an in-process cluster registers all of its nodes in one.

Reliability.  The simulation models reliable private channels.  One TCP
connection is one already: its bytes arrive in order and once, or it
dies.  What TCP loses is whatever a dying connection had in flight, so
loss is a reset, and the transport repairs it across connections with a
per-directed-link sequence protocol:

* every DATA frame carries ``seq`` (an 8-byte prefix ahead of the
  encoded payload), monotonically increasing per (src, dst) link; each
  HELLO announces the sender's current base seq, an epoch bump on
  restart makes receivers re-adopt it, and when counted ring drops shed
  seqs the receiver still expects the sender re-announces its base
  mid-session so the link jumps the shed range instead of stalling;
* the receiver delivers strictly in order exactly once and acks what
  each socket read delivered; a seq below its cursor (a resync may
  resend what already arrived) is dropped and re-acked, and a seq above
  it is a protocol error (``frame_errors["gap"]``) that closes the link;
* the sender queues every frame until cumulatively ACKed, keeps at most
  :data:`WINDOW` of them in flight, and resyncs via HELLO/WELCOME on
  reconnect: the WELCOME carries the receiver's next expected seq, so
  frames a dying connection lost (a whole envelope, or the rest of one
  split across frames) are written again from there.

Supervision.  Each :class:`PeerConnection` reconnects with exponential
backoff plus seeded :data:`BACKOFF_JITTER` (starting over once a link
went LIVE), sends heartbeat PINGs when idle and treats a link with no
inbound traffic for ``idle_timeout`` as dead.  A peer
unreachable for ``down_after`` seconds is marked DOWN — the graceful-
degradation state for ≤ t unreachable peers.

Backpressure.  Outbound queues are bounded by policy, not by silent
drops: while every peer is live, a backlog past ``queue_high_water``
*pauses the node's inbound dispatch pump* (the node stops consuming the
traffic that generates replies — honest senders block, nothing is
dropped) until acks drain it below ``queue_low_water``.  Only a peer in
DOWN state stops counting toward the gate and has its queue capped as a
ring (oldest frames dropped *with accounting*, ``dropped_while_down``):
a crashed peer's channel may lose messages — exactly the simulator's
wire-lossy crash-recovery model (`docs/ADVERSARY.md`), and the seq
resync on its return keeps the surviving suffix consistent.

Restarting a node's transport (:meth:`NetworkNode.stop_transport` /
:meth:`NetworkNode.restart_transport`) models a process crash+reboot
that keeps protocol state: handler tables, modules and receive cursors
survive, socket buffers and queues do not, and the epoch bump makes
every peer reset its per-link sequence expectations (amnesia-free,
wire-lossy — the same contract as ``Runtime.recover``).

Durability and identity.  Every node keeps a write-ahead journal of its
link state: the transport epoch is fsynced at startup, per-link
send/recv seqs are noted on the hot path and flushed on a timer, and a
node restarted from the same journal — a *new OS process* after
``kill -9`` — resumes its links where receivers expect them instead of
starting amnesiac.  Authentication is not optional: every inbound HELLO
must answer an HMAC challenge/response before WELCOME, with per-pair
keys derived from ``TransportConfig.auth_secret`` or, when that is
empty, from :func:`derive_cluster_secret` of the run seed.  An impostor
claiming another pid is counted (``auth_rejected``) and ignored without
ever stalling honest links — the stepping stone to TLS-bound identities.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import itertools
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from random import Random

from repro.config import SystemConfig
from repro.errors import SimulationError
from repro.net.codec import (
    ENVELOPE_OVERHEAD,
    FRAME_ACK,
    FRAME_AUTH,
    FRAME_CHALLENGE,
    FRAME_DATA,
    FRAME_HELLO,
    FRAME_PING,
    FRAME_PONG,
    FRAME_WELCOME,
    MAX_FRAME_BODY,
    MAX_ITEMS,
    SEQ_PREFIX,
    CodecError,
    FrameParser,
    ValueMemo,
    decode_control,
    decode_value,
    encode_control,
    encode_envelope,
    encode_frame,
    encode_value,
)
from repro.net.journal import Journal
from repro.sim.process import ENVELOPE_TAG, ProcessHost, envelope_subs
from repro.sim.window import StepWindow

#: Wire protocol version, carried in HELLO; mismatches are refused.
PROTO_VERSION = 1

#: Peer-connection states.
PEER_CONNECTING = "connecting"
PEER_LIVE = "live"
PEER_DOWN = "down"


#: Uniform jitter fraction on each reconnect backoff delay
#: (desynchronizes thundering herds).
BACKOFF_JITTER = 0.25
#: Max unacked frames in flight per link: bounds what one reset strands,
#: and so what the resync after it writes again.
WINDOW = 1024
#: Seconds between binds of a fixed port while it is still held (a killed
#: predecessor's socket, or another process after a reserve-and-release).
REBIND_DELAYS = (0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class TransportConfig:
    """Tunables of the socket transport (defaults sized for localhost
    test clusters; production deployments raise the timeouts).  The
    in-flight window and the backoff jitter are module constants
    (:data:`WINDOW`, :data:`BACKOFF_JITTER`), not fields."""

    bind_host: str = "127.0.0.1"
    connect_timeout: float = 2.0
    #: Reconnect backoff: ``base * 2**attempt`` capped at ``max``, with a
    #: uniform :data:`BACKOFF_JITTER` fraction on top.
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    #: Send a PING after this long with no outbound traffic.
    heartbeat_interval: float = 0.4
    #: No inbound frame (ACK/PONG/WELCOME) for this long => link is dead.
    idle_timeout: float = 2.5
    #: Backpressure gate: pause inbound dispatch when the live outbound
    #: backlog exceeds ``queue_high_water`` frames; resume below
    #: ``queue_low_water``.
    queue_high_water: int = 8192
    queue_low_water: int = 2048
    #: Mark a peer DOWN after this long unreachable; its queue then caps
    #: at ``down_queue_cap`` frames (ring overwrite, counted).
    down_after: float = 6.0
    down_queue_cap: int = 8192
    max_frame_body: int = MAX_FRAME_BODY
    #: Cluster shared secret for HMAC handshake authentication: every
    #: inbound HELLO answers a challenge with a MAC under the per-pair key
    #: before any WELCOME is issued.  Empty means the node derives it
    #: from the run seed (:func:`derive_cluster_secret`).
    auth_secret: bytes = b""
    #: Journal flush cadence: coalesced seq notes hit the file and the
    #: disk at most this often.
    journal_flush_interval: float = 0.05


async def cancel_tasks(tasks) -> None:
    """Cancel every task (``None`` entries skipped), then wait for each to
    finish, whatever it ends with: the one teardown of a task set."""
    tasks = [task for task in tasks if task is not None]
    for task in tasks:
        task.cancel()
    for task in tasks:
        try:
            await task
        except (asyncio.CancelledError, Exception):
            pass


def derive_cluster_secret(seed: int) -> bytes:
    """The cluster-wide auth secret all honest parties share.

    Deterministic in the run seed so OS-process children (launch.py) and
    in-process clusters derive the same keys without a key exchange —
    the trusted-setup analogue of the paper's private channels."""
    return hashlib.sha256(f"{seed}:net-auth".encode()).digest()


def derive_pair_key(secret: bytes, a: int, b: int) -> bytes:
    """The (a, b) link key: HMAC of the unordered pair under the cluster
    secret, so both endpoints derive the same key and no third party with
    a different pair's key can forge for this one."""
    lo, hi = (a, b) if a <= b else (b, a)
    return hmac.new(secret, f"pair:{lo}:{hi}".encode(), hashlib.sha256).digest()


def handshake_mac(
    key: bytes, nonce: bytes, src: int, dst: int, epoch: int, base: int
) -> bytes:
    """MAC binding one handshake: the challenge nonce plus every HELLO
    field the receiver is about to trust (direction, epoch, seq base)."""
    msg = encode_value(("net-auth", nonce, src, dst, epoch, base, PROTO_VERSION))
    return hmac.new(key, msg, hashlib.sha256).digest()


@dataclass
class PeerStats:
    """Counters one :class:`PeerConnection` maintains (read-only view)."""

    sent: int = 0
    acked: int = 0
    #: Frames written again, below the link's send high-water, by the
    #: resync after a reconnect.
    retransmits: int = 0
    reconnects: int = 0
    connect_failures: int = 0
    dropped_while_down: int = 0
    went_down: int = 0
    auth_challenges: int = 0


class NetworkHost(ProcessHost):
    """A :class:`~repro.sim.process.ProcessHost` whose runtime is a
    :class:`NetRuntime`: the identical send/handler surface, delivered
    over sockets.  Protocol modules cannot tell the difference — that is
    the point (and ``tests/test_net_transport.py`` pins the
    :class:`~repro.sim.module.HostABC` conformance)."""

    __slots__ = ("node",)

    def __init__(self, runtime: "NetRuntime", pid: int, node: "NetworkNode"):
        super().__init__(runtime, pid)
        self.node = node


class NetRuntime(StepWindow):
    """Runtime facade backing one :class:`NetworkHost`.

    Implements the surface protocol modules consume
    (:class:`~repro.sim.module.RuntimeABC`).  The outbound path is the
    shared :class:`~repro.sim.window.StepWindow`: sends made while a step
    is open — one inbox delivery (:meth:`NetworkNode._pump`) or a driver's
    :meth:`coalescing_step` block — are buffered, session-vector muxes
    pack, and the step's flush hands this class's sink one wire payload
    per destination, which becomes one DATA frame.  Sends outside any
    step go out at once, one frame each.
    """

    def __init__(self, node: "NetworkNode", config: SystemConfig):
        super().__init__()  # no scheduler over sockets: the window packs
        self.node = node
        self.config = config
        self.field = config.field
        self.events_dispatched = 0
        #: id(payload) -> (payload, encoding) for the flush in progress: a
        #: fan-out buffers the *same* payload object for every destination,
        #: so each is encoded once however many envelopes it rides.  The
        #: entry pins the payload, so its id cannot be reused meanwhile.
        self._encoded: dict[int, tuple[object, bytes]] = {}

    # -- the node's context: clock, monitor, pid -> host --------------------
    @property
    def now(self) -> float:
        return self.node.context.now

    @property
    def monitor(self):
        return self.node.context.monitor

    @monitor.setter
    def monitor(self, value) -> None:
        self.node.context.monitor = value

    def host(self, pid: int):
        return self.node.context.host(pid)

    # -- notifications -----------------------------------------------------
    def notify_state_change(self) -> None:
        self.node.notify()

    # -- transport ---------------------------------------------------------
    def transmit(self, src: int, dst: int, payload: tuple, layer: str) -> None:
        if dst not in self.config.pids:
            raise SimulationError(f"send to unknown process {dst}")
        self.trace.record_send(layer)
        if self._buffering:
            self._buffer(src, dst, payload)
        else:
            self.node.dispatch_out(dst, payload)

    def transmit_all(self, src: int, payload: tuple, layer: str) -> None:
        """Fan out one payload to every process, encoding it exactly once
        (the seq prefix keeps per-link frames distinct, see codec)."""
        self.trace.record_send_many(layer, self.config.n)
        if self._buffering:
            self._buffer_all(src, payload)
            return
        enc = encode_value(payload, self.node.memo)
        dispatch_out = self.node.dispatch_out
        for dst in self.config.pids:
            dispatch_out(dst, payload, enc)

    def _flush_outbox(self) -> None:
        try:
            super()._flush_outbox()
        finally:
            self._encoded.clear()

    def _encode(self, payload: object) -> bytes:
        """``encode_value`` through the per-flush cache (and, for an RB
        message, the node's value memo)."""
        hit = self._encoded.get(id(payload))
        if hit is None:
            hit = self._encoded[id(payload)] = (
                payload, encode_value(payload, self.node.memo)
            )
        return hit[1]

    def _emit(self, src: int, dst: int, payload: tuple) -> None:
        """The step window's sink: one wire payload -> one DATA frame.

        An envelope is encoded by splicing its sub-payloads' cached
        encodings, and split into several frames, in send order, when its
        body would not fit one: the receiver treats every frame as its own
        delivery, so the split is invisible above the link.
        """
        node = self.node
        if dst == node.pid:
            node.dispatch_out(dst, payload)  # loops back unencoded
            return
        encode = self._encode
        subs = envelope_subs(payload)
        if subs is None or len(subs) < 2:
            node.dispatch_out(dst, payload, encode(payload))
            return
        encoded = [encode(sub) for sub in subs]
        # An encoded item is at least one byte, so capping the body at
        # MAX_ITEMS bytes also keeps the receiver's per-decode item budget.
        budget = (
            min(node.tconfig.max_frame_body, MAX_ITEMS)
            - SEQ_PREFIX.size
            - ENVELOPE_OVERHEAD
        )
        count = len(subs)
        first = 0
        while first < count:
            size = len(encoded[first])
            last = first + 1
            while last < count and size + len(encoded[last]) <= budget:
                size += len(encoded[last])
                last += 1
            if last - first == 1:
                # A lone sub-payload travels plain (also one too big for
                # any frame: the receiver rejects it, as it always did).
                node.dispatch_out(dst, subs[first], encoded[first])
            else:
                node.dispatch_out(
                    dst,
                    (ENVELOPE_TAG, subs[first:last]),
                    encode_envelope(encoded[first:last]),
                )
            first = last


class PeerConnection:
    """Supervised outbound link to one peer.

    Owns the bounded send queue, the reconnect/backoff loop, heartbeat
    and retransmission.  All state is touched only from the node's event
    loop (asyncio single-threaded discipline), so no locks.
    """

    def __init__(self, node: "NetworkNode", dst: int, rng: Random):
        self.node = node
        self.dst = dst
        self.tconfig = node.tconfig
        self.rng = rng
        self.state = PEER_CONNECTING
        self.stats = PeerStats()
        #: (seq, frame_bytes) in seq order: unacked prefix + unsent tail.
        self.queue: deque[tuple[int, bytes]] = deque()
        #: Seqs resume past the journaled high-water, never regressing —
        #: even if a torn journal tail lost the epoch bump, a receiver
        #: holding old-incarnation state sees only forward seqs.
        base_seq = node.journal.state.send_seq.get(dst, 0) + 1
        self._next_seq = base_seq
        #: Next seq to (re)write on the current connection.
        self._cursor = base_seq
        #: Highest seq ever written: what a resync writes at or below it
        #: counts as a retransmit.
        self._written = base_seq - 1
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        #: The running loop's ``time()``, bound by :meth:`start`: the one
        #: clock every stamp below is taken on and compared against.
        self._clock = None
        self._last_up = self._last_inbound = 0.0
        #: Highest cumulative ack seen this session.
        self._acked_high = 0
        #: Base seq last announced via HELLO (re-announced mid-session
        #: when counted ring drops shed seqs the receiver still expects).
        self._announced_base = 0
        self._dead = asyncio.Event()
        self._closed = False

    # -- public ------------------------------------------------------------
    def start(self) -> None:
        if self._task is None:
            # A restarted transport re-starts previously closed peers: the
            # closed flag belongs to the supervisor's lifetime, not ours.
            self._closed = False
            loop = asyncio.get_running_loop()
            self._clock = loop.time
            self._last_up = loop.time()
            self._task = loop.create_task(
                self._supervise(), name=f"peer-{self.node.pid}->{self.dst}"
            )

    async def close(self) -> None:
        self._closed = True
        task, self._task = self._task, None
        if task is None:
            return
        # Re-cancel until the task actually finishes: the first cancel can
        # be consumed mid-session, leaving the supervisor blocked in a
        # cleanup await (e.g. ``wait_closed`` on a transport whose peer
        # stopped reading) with no cancellation pending.
        for _ in range(10):
            task.cancel()
            done, _ = await asyncio.wait({task}, timeout=0.5)
            if done:
                break

    def send(self, payload: object, enc: bytes | None = None) -> None:
        """Queue one wire payload — a logical message or an envelope of
        them — as one DATA frame (called synchronously, by the step flush
        or by an unbuffered send).

        Never blocks and never silently drops: while the peer is not
        DOWN the queue only grows and the *node-level* gate provides the
        backpressure; a DOWN peer's queue is a counted ring.  ``enc`` is
        the payload pre-encoded (fan-outs encode once and share it).
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        if enc is None:
            enc = encode_value(payload)
        frame = encode_frame(FRAME_DATA, SEQ_PREFIX.pack(seq) + enc)
        self.queue.append((seq, frame))
        self.stats.sent += 1
        # Coalesced; flushed on a timer.
        self.node.journal.note_send(self.dst, seq)
        if (
            self.state == PEER_DOWN
            and len(self.queue) > self.tconfig.down_queue_cap
        ):
            dropped_seq, _ = self.queue.popleft()
            self.stats.dropped_while_down += 1
            if self._cursor <= dropped_seq:
                self._cursor = dropped_seq + 1
        self._wake.set()
        self.node.update_gate()

    @property
    def backlog(self) -> int:
        return len(self.queue)

    # -- supervisor --------------------------------------------------------
    async def _supervise(self) -> None:
        tconf = self.tconfig
        attempt = 0
        while not self._closed:
            try:
                await self._run_once()  # only ever ends by raising
            except asyncio.CancelledError:
                raise
            except Exception:
                self.stats.connect_failures += 1
            if self._closed:
                return
            if self.state == PEER_LIVE:
                # The session got through its handshake: the next
                # reconnect is a fresh outage, so backoff starts over.
                attempt = 0
            now = self._clock()
            if self.state != PEER_DOWN and now - self._last_up > tconf.down_after:
                self.state = PEER_DOWN
                self.stats.went_down += 1
                self.node.update_gate()
            elif self.state == PEER_LIVE:
                self.state = PEER_CONNECTING
                self.node.update_gate()
            delay = min(
                tconf.backoff_max, tconf.backoff_base * (2 ** min(attempt, 16))
            )
            delay *= 1.0 + BACKOFF_JITTER * self.rng.random()
            attempt += 1
            await asyncio.sleep(delay)

    async def _run_once(self) -> None:
        tconf = self.tconfig
        addr = self.node.peer_address(self.dst)
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(addr[0], addr[1]),
            timeout=tconf.connect_timeout,
        )
        parser = FrameParser(tconf.max_frame_body)
        self._dead = asyncio.Event()
        try:
            # ``base`` tells a fresh (or reset) receive link where our
            # seqs resume — after an epoch bump or counted DOWN drops the
            # oldest queued frame is the earliest seq we can still offer.
            base = self.queue[0][0] if self.queue else self._next_seq
            writer.write(self._hello(base))
            await writer.drain()
            next_expected = await asyncio.wait_for(
                self._await_welcome(reader, writer, parser, base),
                timeout=tconf.connect_timeout,
            )
            # Frames the receiver already holds need no resend.
            self._ack_through(next_expected - 1)
            self._acked_high = next_expected - 1
            self._cursor = (
                self.queue[0][0] if self.queue else self._next_seq
            )
            was_down = self.state == PEER_DOWN
            self.state = PEER_LIVE
            if was_down:
                self.node.update_gate()
            self._last_up = self._last_inbound = self._clock()
            self.stats.reconnects += 1
            reader_task = asyncio.get_running_loop().create_task(
                self._reader_loop(reader, parser)
            )
            try:
                await self._writer_loop(writer)
            finally:
                await cancel_tasks([reader_task])
        finally:
            if self.state == PEER_LIVE:
                self._last_up = self._clock()
            writer.close()
            try:
                # Bounded: ``wait_closed`` waits for the kernel buffer to
                # flush, which never happens if the peer stopped reading.
                await asyncio.wait_for(writer.wait_closed(), timeout=1.0)
            except asyncio.CancelledError:
                writer.transport.abort()
                raise
            except Exception:
                writer.transport.abort()

    def _hello(self, base: int) -> bytes:
        """The HELLO announcing ``base``, where this link's seqs resume."""
        self._announced_base = base
        node = self.node
        return encode_control(FRAME_HELLO, node.pid, node.epoch, PROTO_VERSION, base)

    async def _await_welcome(
        self, reader, writer, parser: FrameParser, base: int
    ) -> int:
        """Wait for WELCOME, answering the receiver's auth challenge
        first (every receiver issues one)."""
        while True:
            data = await reader.read(65536)
            if not data:
                raise ConnectionError("closed before WELCOME")
            for ftype, body in parser.feed(data):
                if ftype == FRAME_CHALLENGE:
                    challenge = decode_control(ftype, body)
                    if challenge is None or challenge[0] != self.dst:
                        continue
                    key = derive_pair_key(
                        self.node.secret, self.node.pid, self.dst
                    )
                    mac = handshake_mac(
                        key, challenge[1], self.node.pid, self.dst,
                        self.node.epoch, base,
                    )
                    writer.write(encode_control(FRAME_AUTH, self.node.pid, mac))
                    await writer.drain()
                    self.stats.auth_challenges += 1
                elif ftype == FRAME_WELCOME:
                    welcome = decode_control(ftype, body)
                    if (
                        welcome is not None
                        and welcome[1] == self.node.epoch
                        and welcome[2] >= 1
                    ):
                        return welcome[2]

    async def _reader_loop(self, reader, parser: FrameParser) -> None:
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                self._last_inbound = self._clock()
                for ftype, body in parser.feed(data):
                    if ftype == FRAME_ACK:
                        ack = decode_control(ftype, body)
                        if ack is not None:
                            self._on_ack(ack[0])
                    # PONG / anything else: the timestamp update above is
                    # all the health tracking needs.
        finally:
            self._dead.set()
            self._wake.set()  # the writer reconnects now, not at a timeout

    def _on_ack(self, acked: int) -> None:
        if acked > self._acked_high:
            self._acked_high = acked
            self._ack_through(acked)

    def _ack_through(self, seq: int) -> None:
        queue = self.queue
        popped = False
        while queue and queue[0][0] <= seq:
            queue.popleft()
            self.stats.acked += 1
            popped = True
        if popped:
            if self._cursor <= seq:
                self._cursor = seq + 1
            self.node.update_gate()
            self._wake.set()  # the in-flight window just reopened

    async def _writer_loop(self, writer) -> None:
        tconf = self.tconfig
        clock = self._clock
        last_out = clock()
        ping_nonce = 0
        while True:
            if writer.transport.is_closing():
                raise ConnectionError("transport closed under the writer")
            queue = self.queue
            if queue and queue[0][0] > max(self._acked_high + 1, self._announced_base):
                # The ring shed seqs the receiver may still be waiting for
                # (counted DOWN drops racing the handshake, or drops after
                # it): re-announce our base mid-session so the receiver
                # jumps past the shed range instead of stalling forever.
                writer.write(self._hello(queue[0][0]))
                await writer.drain()
                last_out = clock()
            if queue and self._cursor <= queue[-1][0]:
                start = self._cursor - queue[0][0]
                # In-flight cap: never more than ``WINDOW`` unacked frames
                # out, so one reset strands a bounded resend.
                stop = min(len(queue), WINDOW)
                frames = list(itertools.islice(queue, max(0, start), stop))
                if frames:
                    first, last = frames[0][0], frames[-1][0]
                    if first <= self._written:
                        self.stats.retransmits += (
                            min(last, self._written) - first + 1
                        )
                    self._written = max(self._written, last)
                    # One write per burst: a dead socket then costs one
                    # failed send (and one asyncio log line), not one per
                    # frame — and healthy paths save the syscalls too.
                    writer.write(b"".join(frame for _, frame in frames))
                    self._cursor = last + 1
                    await writer.drain()
                    last_out = clock()
            now = clock()
            if self._dead.is_set():
                raise ConnectionError("peer closed the link")
            if now - self._last_inbound > tconf.idle_timeout:
                raise TimeoutError("no inbound traffic; link presumed dead")
            if now - last_out > tconf.heartbeat_interval:
                ping_nonce += 1
                writer.write(encode_control(FRAME_PING, ping_nonce))
                await writer.drain()
                last_out = clock()
            self._wake.clear()
            timeout = tconf.heartbeat_interval / 2
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=timeout)
            except asyncio.TimeoutError:
                pass


class _RecvLink:
    """Receive-side per-(src, epoch) sequence state."""

    __slots__ = ("epoch", "next_expected", "since_ack", "duplicates")

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.next_expected = 1
        self.since_ack = 0
        self.duplicates = 0


class NetContext:
    """The runtime surface nodes share: one clock, the monitor, pid ->
    host, and one change event with the one wait on it.

    A lone node is registered in a one-node context (``host(other_pid)``
    raises); a :class:`~repro.net.cluster.NetCluster` registers all of its
    nodes in one, onto which the monitor installs as onto a ``Runtime``.
    ``now`` reads the running loop's ``time()`` from an origin taken on the
    loop when the first member starts; it is 0.0 before (a never-started
    node's ``RuntimeABC`` check reads it off any loop).
    """

    def __init__(self, config: SystemConfig):
        self.config = config
        self.monitor = None
        self._nodes: dict[int, NetworkNode] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._origin = 0.0
        self._changed = asyncio.Event()

    def register(self, node: "NetworkNode") -> None:
        self._nodes[node.pid] = node
        node.context = self

    def host(self, pid: int):
        try:
            return self._nodes[pid].host
        except KeyError:
            raise SimulationError(f"no node registered for pid {pid}") from None

    # -- clock -------------------------------------------------------------
    def start_clock(self) -> None:
        """Take the clock's origin on the running loop (first call only)."""
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
            self._origin = self._loop.time()

    @property
    def now(self) -> float:
        loop = self._loop
        return 0.0 if loop is None else loop.time() - self._origin

    # -- the one wait ------------------------------------------------------
    def notify(self) -> None:
        self._changed.set()

    async def wait_for(self, predicate, timeout: float) -> None:
        """Wait until ``predicate()`` holds, re-evaluating it on every
        member's state-change notification and at least every 0.25 s (the
        async analogue of ``run_until``)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        changed = self._changed
        while not predicate():
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise TimeoutError(f"predicate not true after {timeout}s")
            changed.clear()
            if predicate():  # re-check: notify may have landed pre-clear
                return
            try:
                await asyncio.wait_for(
                    changed.wait(), timeout=min(remaining, 0.25)
                )
            except asyncio.TimeoutError:
                pass


class NetworkNode:
    """One protocol process over real sockets.

    Lifecycle::

        node = NetworkNode(config, pid, journal_path, tconfig=TransportConfig())
        port = await node.start_server()      # bind (port may be 0)
        node.set_peers({pid: (host, port), ...})
        node.start_peers()
        ... attach ProtocolModules to node.host, drive, await node.wait_for(...)
        await node.close()

    All protocol handler execution happens on the event loop (the inbound
    pump task), so module code needs no locking — the same single-threaded
    discipline as the simulated runtime.
    """

    def __init__(
        self,
        config: SystemConfig,
        pid: int,
        journal: "str | Path",
        tconfig: TransportConfig | None = None,
    ):
        if pid not in config.pids:
            raise SimulationError(f"pid {pid} not in 1..{config.n}")
        self.config = config
        self.pid = pid
        self.tconfig = tconfig or TransportConfig()
        #: The secret every handshake, in and out, is MACed under.
        self.secret = self.tconfig.auth_secret or derive_cluster_secret(
            config.seed
        )
        # Sets ``self.context``: a one-node context until a cluster's
        # ``register`` replaces it with the shared one.
        NetContext(config).register(self)
        self.journal = journal = Journal(journal)
        #: The new incarnation's epoch strictly follows every journaled
        #: one, fsynced before any link opens: receivers key their links
        #: by (src, epoch), so a crashed incarnation's state never leaks.
        self.epoch = journal.state.epoch + 1
        self.runtime = NetRuntime(self, config)
        self.host = NetworkHost(self.runtime, pid, self)
        self.peers: dict[int, PeerConnection] = {}
        self._addresses: dict[int, tuple[str, int]] = {}
        self._server: asyncio.AbstractServer | None = None
        self._inbox: asyncio.Queue = asyncio.Queue()
        #: RB values this incarnation has decoded or sent: each of the
        #: 2n + 1 copies of one value crosses the codec once.
        self.memo = ValueMemo()
        self._pump_task: asyncio.Task | None = None
        self._gate = asyncio.Event()
        self._gate.set()
        self._recv_links: dict[int, _RecvLink] = {}
        # Make the incarnation durable *before* any link opens, then
        # restore receive expectations: a sender that stayed up keeps its
        # epoch and seqs, and must not be re-delivered from 1.
        journal.record_epoch(self.epoch)
        for src, (link_epoch, nxt) in journal.state.recv_links.items():
            link = _RecvLink(link_epoch)
            link.next_expected = nxt
            self._recv_links[src] = link
        self._journal_task: asyncio.Task | None = None
        self.auth_rejected = 0
        self._rng = config.derive_rng("net", pid)
        self.port: int | None = None
        #: Logical messages handed to the host (an envelope counts its
        #: sub-payloads) / DATA frames they arrived in (self-sends loop
        #: back without a frame).
        self.delivered = 0
        self.frames_delivered = 0
        self.frame_errors: dict[str, int] = {}
        self._conn_counter = itertools.count(1)
        #: Live inbound connection handler tasks (cancelled on shutdown —
        #: closing the server alone leaves accepted sockets running).
        self._conn_tasks: set[asyncio.Task] = set()

    # -- addresses ---------------------------------------------------------
    def set_peers(self, addresses: dict[int, tuple[str, int]]) -> None:
        """Install the address book (own entry ignored); chaos runs point
        entries at proxy ports instead of the peers' real ports."""
        self._addresses = dict(addresses)

    def peer_address(self, dst: int) -> tuple[str, int]:
        try:
            return self._addresses[dst]
        except KeyError:
            raise SimulationError(
                f"node {self.pid} has no address for peer {dst}"
            ) from None

    # -- lifecycle ---------------------------------------------------------
    async def start_server(self, port: int = 0) -> int:
        """Bind the inbound TCP server; returns the bound port.  A fixed
        ``port`` is bound again after each of :data:`REBIND_DELAYS` while
        it is still held."""
        for delay in (*REBIND_DELAYS, None):
            try:
                self._server = await asyncio.start_server(
                    self._on_connection, self.tconfig.bind_host, port
                )
                break
            except OSError:
                if not port or delay is None:
                    raise
                await asyncio.sleep(delay)
        self.port = self._server.sockets[0].getsockname()[1]
        self.context.start_clock()
        loop = asyncio.get_running_loop()
        if self._pump_task is None:
            self._pump_task = loop.create_task(
                self._pump(), name=f"pump-{self.pid}"
            )
        if self._journal_task is None:
            self._journal_task = loop.create_task(
                self._journal_flush_loop(), name=f"journal-{self.pid}"
            )
        return self.port

    def start_peers(self) -> None:
        for dst in self.config.pids:
            if dst == self.pid:
                continue
            if dst not in self.peers:
                rng = Random(self._rng.random())
                self.peers[dst] = PeerConnection(self, dst, rng)
            self.peers[dst].start()

    async def stop_transport(self) -> None:
        """Crash the transport: close the server and every connection,
        discard outbound queues.  Protocol state (host, modules) and the
        receive cursors survive — frames already delivered are never
        accepted a second time when the sender retransmits into the new
        incarnation.  This is the wire-lossy half of a node reboot;
        :meth:`restart_transport` is its return."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # Closing the server only stops the listener; accepted inbound
        # sockets live in their handler tasks and must die with the crash.
        # They are cancelled before ``wait_closed`` because newer asyncio
        # has ``wait_closed`` wait on the handlers too (deadlock bait).
        await cancel_tasks(list(self._conn_tasks))
        self._conn_tasks.clear()
        if server is not None:
            try:
                await server.wait_closed()
            except Exception:
                pass
        for peer in self.peers.values():
            await peer.close()
            peer.queue.clear()
            peer.state = PEER_CONNECTING
        for src, link in self._recv_links.items():
            # Exact link state on disk too: it outlives process death.
            self.journal.note_recv(src, link.epoch, link.next_expected)
        self.journal.flush_notes()
        # Anything already pumped into the inbox belongs to the crashed
        # incarnation's socket buffers: purge, like Runtime's recover() —
        # and the value memo, a cache of that traffic, goes with it.
        while not self._inbox.empty():
            self._inbox.get_nowait()
        self.memo.clear()
        self.update_gate()

    async def restart_transport(self) -> int:
        """Rebind the server (same port) and reconnect every peer under a
        new epoch, so peers' receive links reset their seq expectations."""
        self.epoch += 1
        self.journal.record_epoch(self.epoch)
        port = await self.start_server(self.port or 0)
        self.start_peers()
        return port

    async def close(self) -> None:
        await self.stop_transport()
        await cancel_tasks([self._pump_task, self._journal_task])
        self._pump_task = self._journal_task = None
        self.journal.close()

    async def _journal_flush_loop(self) -> None:
        """Flush coalesced seq notes on a timer: the hot path only does
        dict writes, this loop amortises encode+write+fsync across every
        frame sent since the last tick."""
        journal = self.journal
        interval = self.tconfig.journal_flush_interval
        while True:
            await asyncio.sleep(interval)
            journal.flush_notes()

    # -- outbound ----------------------------------------------------------
    def dispatch_out(self, dst: int, payload: object, enc: bytes | None = None) -> None:
        if dst == self.pid:
            # Self-sends queue like everything else (handlers never run
            # reentrantly inside a send, matching the simulator).
            self._inbox.put_nowait((self.pid, payload))
            return
        peer = self.peers.get(dst)
        if peer is None:
            rng = Random(self._rng.random())
            peer = self.peers[dst] = PeerConnection(self, dst, rng)
        peer.send(payload, enc)

    def update_gate(self) -> None:
        """Recompute the backpressure gate from the live backlog."""
        backlog = sum(
            peer.backlog
            for peer in self.peers.values()
            if peer.state != PEER_DOWN
        )
        if backlog > self.tconfig.queue_high_water:
            self._gate.clear()
        elif backlog < self.tconfig.queue_low_water:
            self._gate.set()

    # -- inbound -----------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        """Serve one inbound link: HELLO handshake, then DATA/PING frames.

        Frame-level garbage is rejected per frame by the parser; value-
        level garbage is dropped per message here.  Neither kills the
        loop — only EOF, a socket error or a seq gap ends it.
        """
        parser = FrameParser(self.tconfig.max_frame_body)
        src: int | None = None
        link: _RecvLink | None = None
        #: HELLO awaiting its challenge response: (src, epoch, base, nonce).
        pending_auth: tuple[int, int, int, bytes] | None = None
        #: pid proven by challenge/response *on this connection* — a
        #: re-HELLO from the same authenticated pid (mid-session base
        #: re-announce) is trusted without a fresh round trip.
        authed_src: int | None = None
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                out = bytearray()
                for ftype, body in parser.feed(data):
                    if ftype == FRAME_HELLO:
                        hello = self._validate_hello(body)
                        if hello is None:
                            continue
                        if hello[0] != authed_src:
                            nonce = os.urandom(16)
                            pending_auth = (*hello, nonce)
                            out += encode_control(FRAME_CHALLENGE, self.pid, nonce)
                            continue
                        src, link = self._adopt_link(*hello, out)
                    elif ftype == FRAME_AUTH:
                        if pending_auth is None or not self._check_auth(
                            body, *pending_auth
                        ):
                            # An impostor (or a peer with the wrong
                            # secret) never gets a link — and never gets
                            # to stall this loop either: the connection
                            # stays open, honest frames keep flowing.
                            self.auth_rejected += 1
                            pending_auth = None
                            continue
                        a_src, a_epoch, a_base, _ = pending_auth
                        pending_auth = None
                        authed_src = a_src
                        src, link = self._adopt_link(a_src, a_epoch, a_base, out)
                    elif link is None:
                        continue  # no valid handshake yet: ignore traffic
                    elif ftype == FRAME_DATA:
                        self._on_data(src, link, body, out)
                    elif ftype == FRAME_PING:
                        out += encode_frame(FRAME_PONG, body)
                        out += self._ack_frame(link)
                if link is not None and link.since_ack:
                    # Ack what this read delivered, so a short tail never
                    # waits for a PING to trim the sender's queue.
                    out += self._ack_frame(link)
                if parser.errors:
                    self._merge_frame_errors(parser.errors)
                    parser.errors = {}
                if out:
                    writer.write(bytes(out))
                    await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            return
        except asyncio.CancelledError:
            # Server shutdown cancels in-flight connection handlers; a
            # clean return keeps teardown quiet (nothing awaits us).
            return
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                # Bounded for the same reason as the peer-side teardown:
                # an unread kernel buffer would park ``wait_closed``
                # forever, and by now our CancelledError (if any) has
                # already been consumed — nobody would re-cancel us.
                await asyncio.wait_for(writer.wait_closed(), timeout=1.0)
            except asyncio.CancelledError:
                writer.transport.abort()
            except Exception:
                writer.transport.abort()

    def _validate_hello(self, body: bytes) -> "tuple[int, int, int] | None":
        """Shape-check one HELLO body; returns ``(src, epoch, base)``.

        Validation is split from adoption because the node must not touch
        link state until the challenge round trip proves the claimed pid
        — an impostor's HELLO would otherwise reset an honest sender's
        receive link just by naming its pid."""
        hello = decode_control(FRAME_HELLO, body)
        if hello is None:
            return None
        src, epoch, version, base = hello
        if (
            src in self.config.pids
            and isinstance(epoch, int)
            and version == PROTO_VERSION
            and isinstance(base, int)
            and base >= 1
        ):
            return src, epoch, base
        return None

    def _check_auth(
        self, body: bytes, src: int, epoch: int, base: int, nonce: bytes
    ) -> bool:
        """Verify one FRAME_AUTH against the pending challenge."""
        auth = decode_control(FRAME_AUTH, body)
        if auth is None or auth[0] != src:
            return False
        key = derive_pair_key(self.secret, src, self.pid)
        expected = handshake_mac(key, nonce, src, self.pid, epoch, base)
        return hmac.compare_digest(expected, auth[1])

    def _adopt_link(self, src: int, epoch: int, base: int, out: bytearray):
        link = self._recv_links.get(src)
        if link is None or link.epoch != epoch:
            # New sender incarnation: adopt its announced seq base (seqs
            # survive the sender's restarts; only the epoch resets links).
            link = _RecvLink(epoch)
            link.next_expected = base
            self._recv_links[src] = link
        elif base > link.next_expected:
            # The sender shed frames below ``base`` while we were DOWN
            # (counted ring drops): those seqs no longer exist — waiting
            # for them would stall the link forever.
            link.next_expected = base
        out += encode_control(FRAME_WELCOME, self.pid, epoch, link.next_expected)
        return src, link

    def _on_data(self, src: int, link: _RecvLink, body: bytes, out: bytearray) -> None:
        if len(body) < SEQ_PREFIX.size:
            self._merge_frame_errors({"bad-data": 1})
            return
        (seq,) = SEQ_PREFIX.unpack_from(body)
        # Order the seq check before the decode: duplicates are re-acked
        # without paying for a value decode.
        if seq == link.next_expected:
            link.next_expected += 1
            link.since_ack += 1
            self._deliver_raw(src, body[SEQ_PREFIX.size :])
            # Coalesced note (dict write): the flush timer persists the
            # highest delivered seq, so a restarted incarnation never
            # re-accepts what this one already handed up.  The ack waits
            # for the end of the read (``_on_connection``).
            self.journal.note_recv(src, link.epoch, link.next_expected)
        elif seq < link.next_expected:
            link.duplicates += 1
            out += self._ack_frame(link)  # re-ack so the sender advances
        else:
            # One connection's frames arrive in order and once, so a seq
            # past the cursor means the stream itself is broken: close
            # the link, and the resync resends from ``next_expected``.
            self._merge_frame_errors({"gap": 1})
            raise ConnectionError(
                f"gap on the link from {src}: seq {seq}, "
                f"expected {link.next_expected}"
            )

    def _deliver_raw(self, src: int, raw: bytes) -> None:
        """Decode one in-sequence payload into the inbox.

        The seq is consumed by the caller either way: a CRC-valid frame
        whose value does not decode is a byzantine sender's message —
        dropped per-message, never allowed to stall the link on
        retransmits.
        """
        try:
            payload = decode_value(raw, self.memo)
        except CodecError:
            self._merge_frame_errors({"bad-value": 1})
        else:
            self._inbox.put_nowait((src, payload))

    def _ack_frame(self, link: _RecvLink) -> bytes:
        link.since_ack = 0
        return encode_control(FRAME_ACK, link.next_expected - 1)

    def _merge_frame_errors(self, errors: dict[str, int]) -> None:
        for cause, count in errors.items():
            self.frame_errors[cause] = self.frame_errors.get(cause, 0) + count

    async def _pump(self) -> None:
        """Deliver inbox messages through the host's handler table.

        The backpressure gate is awaited *before* each delivery: when the
        outbound backlog is past high water, the node stops consuming the
        inbound traffic that generates replies — honest peers block on
        their own gates in turn, and nothing is dropped anywhere.
        """
        inbox = self._inbox
        host = self.host
        runtime = self.runtime
        while True:
            src, payload = await inbox.get()
            await self._gate.wait()
            # One delivery is one step: everything the handlers send in
            # reply leaves as one frame per destination when it closes.
            with runtime.coalescing_step():
                host.deliver(src, payload)
            if src != self.pid:
                self.frames_delivered += 1
            subs = envelope_subs(payload)
            self.delivered += 1 if subs is None else len(subs)
            runtime.events_dispatched += 1

    # -- waits -------------------------------------------------------------
    def notify(self) -> None:
        self.context.notify()

    async def wait_for(self, predicate, timeout: float = 30.0) -> None:
        """Wait until ``predicate()`` holds: the context's one wait."""
        await self.context.wait_for(predicate, timeout)

    # -- stats -------------------------------------------------------------
    def peer_states(self) -> dict[int, str]:
        return {dst: peer.state for dst, peer in self.peers.items()}

    def stats(self) -> dict:
        runtime = self.runtime
        return {
            "pid": self.pid,
            "delivered": self.delivered,
            "frames_delivered": self.frames_delivered,
            "envelopes_pushed": runtime.envelopes_pushed,
            "payloads_coalesced": runtime.payloads_coalesced,
            "svec_packed": runtime.svec_packed,
            "svec_batch_ingested": runtime.svec_batch_ingested,
            "frame_errors": dict(self.frame_errors),
            "decode_memo": self.memo.stats(),
            "auth_rejected": self.auth_rejected,
            "journal": self.journal.stats(),
            "peers": {
                dst: {
                    "state": peer.state,
                    "backlog": peer.backlog,
                    "sent": peer.stats.sent,
                    "acked": peer.stats.acked,
                    "retransmits": peer.stats.retransmits,
                    "reconnects": peer.stats.reconnects,
                    "connect_failures": peer.stats.connect_failures,
                    "dropped_while_down": peer.stats.dropped_while_down,
                    "went_down": peer.stats.went_down,
                    "auth_challenges": peer.stats.auth_challenges,
                }
                for dst, peer in sorted(self.peers.items())
            },
        }
