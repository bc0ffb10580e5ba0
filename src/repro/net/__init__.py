"""repro.net — fault-tolerant asyncio network transport.

Everything under :mod:`repro.sim` runs the protocol stack inside a
simulated event loop; this package runs the *same* ``ProtocolModule``
stacks over real asyncio TCP sockets:

* :mod:`repro.net.codec` — canonical serialization for the existing wire
  tuples (envelopes, session-vectors, RB bids, ABA votes) plus
  length-prefixed, checksummed framing with per-frame rejection;
* :mod:`repro.net.transport` — :class:`NetworkHost` (the
  ``ProcessHost`` send/handler surface over sockets), a
  :class:`PeerConnection` supervisor per peer (exponential-backoff
  reconnect, heartbeats, a seq/ack resync that repairs connection
  resets, bounded outbound queues with backpressure),
  :class:`NetworkNode` tying one process' server + peers + dispatch pump
  together, and :class:`NetContext`, the clock, monitor and wait the
  nodes of one cluster (or a lone node) share;
* :mod:`repro.net.journal` — :class:`Journal`, the append-only
  checksummed write-ahead journal (per-link seq state, transport epoch,
  protocol decisions) that makes a ``kill -9``'d node restartable with
  its identity and state intact;
* :mod:`repro.net.chaos` — :class:`ChaosProxy`, a frame-aware seeded
  fault-injection proxy (reset/delay/partition/slow-link/flaky per
  directed link, the faults TCP has) — the network analogue of the
  adversarial schedulers;
* :mod:`repro.net.cluster` — an in-process n-node cluster over real
  127.0.0.1 TCP with :class:`~repro.sim.monitor.InvariantMonitor`
  integration (the test/benchmark harness);
* :mod:`repro.net.launch` — spawn ``n`` OS processes and drive
  agreement + coin flips end-to-end over sockets (``python -m
  repro.net.launch``), judged by the same monitor fed the children's
  reports: one judge for every run.

The transport contract (reliability, backpressure, degradation) is
documented in ``docs/NETWORK.md``.
"""

from repro.net.chaos import CHAOS_PROFILES, ChaosProfile, ChaosProxy, LinkPolicy
from repro.net.cluster import NetCluster
from repro.net.codec import (
    FRAME_ACK,
    FRAME_AUTH,
    FRAME_CHALLENGE,
    FRAME_DATA,
    FRAME_HELLO,
    FRAME_JOURNAL,
    FRAME_PING,
    FRAME_PONG,
    FRAME_WELCOME,
    MAX_FRAME_BODY,
    CodecError,
    FrameError,
    FrameParser,
    decode_value,
    encode_frame,
    encode_value,
)
from repro.net.journal import Journal, JournalError, JournalState, replay_journal
from repro.net.launch import run_processes
from repro.net.transport import (
    NetContext,
    NetRuntime,
    NetworkHost,
    NetworkNode,
    PeerConnection,
    TransportConfig,
    derive_pair_key,
)

__all__ = [
    "CHAOS_PROFILES",
    "ChaosProfile",
    "ChaosProxy",
    "CodecError",
    "FRAME_ACK",
    "FRAME_AUTH",
    "FRAME_CHALLENGE",
    "FRAME_DATA",
    "FRAME_HELLO",
    "FRAME_JOURNAL",
    "FRAME_PING",
    "FRAME_PONG",
    "FRAME_WELCOME",
    "FrameError",
    "FrameParser",
    "Journal",
    "JournalError",
    "JournalState",
    "LinkPolicy",
    "MAX_FRAME_BODY",
    "NetCluster",
    "NetContext",
    "NetRuntime",
    "NetworkHost",
    "NetworkNode",
    "PeerConnection",
    "TransportConfig",
    "decode_value",
    "derive_pair_key",
    "encode_frame",
    "encode_value",
    "replay_journal",
    "run_processes",
]
