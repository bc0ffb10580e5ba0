"""Write-ahead link journal: durable node identity and state.

A SIGKILLed OS process loses every in-memory structure the transport and
protocol stack built — per-link seqs, the transport epoch, decisions —
and rejoining with amnesia silently weakens the n = 3t + 1 resilience
the paper's model buys (a recovering party must return with its state
intact).  The journal is the on-disk half of the crash-restart story:
an append-only file of checksummed records reusing the codec's frame
discipline, replayed on relaunch to the *longest valid prefix*, so a
node restarted from disk

* resumes its links where receivers expect them (send seqs never
  regress; receive expectations survive, so a resumed link neither
  redelivers nor stalls),
* returns under a fresh transport epoch (the epoch record is fsynced at
  every startup before any frame is sent), and
* re-announces its prior decisions instead of re-deciding — a restarted
  node contradicting its own journaled decision is a safety violation
  (the monitor's ``self-contradiction``, which :mod:`repro.net.launch`
  feeds every report's journaled decisions).

Record format.  One record is one codec frame of type ``FRAME_JOURNAL``::

    MAGIC(2) | 0x09 | LEN(4) | encode_value(record_tuple) | CRC32(4)

Replay walks records strictly in file order and stops at the first
structural fault — bad magic, wrong type, oversized length, checksum
mismatch, truncated tail, undecodable body.  Everything before the fault
is the valid prefix; everything after is counted (``tail_discarded``
bytes) and physically truncated on reopen so new appends never follow
garbage.  A torn tail — the write that was in flight when the process
died — is therefore recovered from by construction, and a flipped byte
mid-file costs the suffix, never a misparse.

Record kinds (tuples, first element the kind):

* ``("epoch", e)`` — transport epoch; replay keeps the max.
* ``("sseq", dst, high)`` — send-seq high-water per directed link;
  replay keeps the max (a seq must never regress).
* ``("recv", src, epoch, next_expected)`` — receive-link expectation;
  replay adopts only forward movement (a record with a stale epoch or a
  regressing seq is counted in ``stale_records`` and ignored).
* ``("input", instance, value)`` — the protocol input (first wins: an
  input is immutable).
* ``("decision", instance, value, round)`` — a decided instance.
* ``("coin", session, value)`` — a coin output.
* ``("shun", (pid, ...))`` — the DMM shun/suspect set snapshot.
* unknown kinds are skipped (counted), so older journals stay readable.

Durability policy — there is one.  The hot path (one record noted per
DATA frame) must not fsync per record — that would cost the transport
its clean-path throughput.  Seq notes are coalesced in memory and
the owning node flushes them on a timer
(``TransportConfig.journal_flush_interval``); each such flush is one
fsync, and so is every durable append (epoch, input, decision, coin,
shun — the records whose loss changes protocol behaviour).  Other
appends reach the file (without an fsync) once ``FLUSH_EVERY_BYTES``
are buffered.  Losing the tail of batched seq records costs at most a
bounded window of duplicate deliveries after a crash — which the
restarted protocol stack needs anyway — never a seq regression, because
the epoch bump fences the new incarnation's links.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.net.codec import (
    _CRC,
    _HEADER,
    FRAME_JOURNAL,
    MAGIC,
    CodecError,
    decode_value,
    encode_frame,
    encode_value,
)

#: Hard cap on one journal record's body; honest records are tens of
#: bytes (a shun snapshot is the largest at O(n)).
MAX_JOURNAL_BODY = 1 << 20

#: Buffered non-durable appends reach the file once they pass this size.
FLUSH_EVERY_BYTES = 1 << 15


class JournalError(ReproError):
    """The journal cannot be opened or written (never raised by replay:
    a corrupt file replays to its longest valid prefix instead)."""


@dataclass
class JournalState:
    """Aggregate state replayed from (and mirrored by) one journal."""

    #: Highest transport epoch recorded; the next incarnation runs at +1.
    epoch: int = 0
    #: dst -> highest send seq handed out on that directed link.
    send_seq: dict = field(default_factory=dict)
    #: src -> (sender_epoch, next_expected) receive-link expectation.
    recv_links: dict = field(default_factory=dict)
    #: instance -> input value (first record wins; inputs are immutable).
    inputs: dict = field(default_factory=dict)
    #: instance -> (value, round) decided.
    decisions: dict = field(default_factory=dict)
    #: coin session -> output value.
    coins: dict = field(default_factory=dict)
    #: Last journaled DMM shun/suspect snapshot.
    shunned: tuple = ()

    # -- replay accounting (not themselves journaled) ----------------------
    #: Valid records replayed from disk at open.
    replayed: int = 0
    #: Bytes past the longest valid prefix (torn tail / corruption).
    tail_discarded: int = 0
    #: Structurally valid records whose content was ignored: stale-epoch
    #: or seq-regressing ``recv``/``sseq``/``epoch`` payloads.
    stale_records: int = 0
    #: Structurally valid records of an unknown kind (forward compat).
    unknown_records: int = 0

    def apply(self, record: object) -> None:
        """Fold one decoded record in, with never-regress monotonicity."""
        if not isinstance(record, tuple) or not record:
            self.unknown_records += 1
            return
        kind = record[0]
        if kind == "epoch" and len(record) == 2 and isinstance(record[1], int):
            if record[1] > self.epoch:
                self.epoch = record[1]
            else:
                self.stale_records += 1
        elif kind == "sseq" and len(record) == 3:
            _, dst, high = record
            if high > self.send_seq.get(dst, 0):
                self.send_seq[dst] = high
            else:
                self.stale_records += 1
        elif kind == "recv" and len(record) == 4:
            _, src, epoch, nxt = record
            cur = self.recv_links.get(src)
            if cur is None or (epoch, nxt) > cur:
                # Tuple order does the right thing: a newer sender epoch
                # always wins; within one epoch only forward movement.
                self.recv_links[src] = (epoch, nxt)
            else:
                self.stale_records += 1
        elif kind == "input" and len(record) == 3:
            self.inputs.setdefault(record[1], record[2])
        elif kind == "decision" and len(record) == 4:
            self.decisions[record[1]] = (record[2], record[3])
        elif kind == "coin" and len(record) == 3:
            self.coins[record[1]] = record[2]
        elif kind == "shun" and len(record) == 2 and isinstance(record[1], tuple):
            self.shunned = record[1]
        else:
            self.unknown_records += 1


def replay_journal(path: "str | Path") -> tuple[JournalState, int]:
    """Replay ``path`` to its longest valid prefix.

    Returns ``(state, valid_prefix_length)``.  Never raises on content:
    a missing file is an empty journal, and the first structural fault
    (bad magic/type/length/CRC, truncated tail, undecodable body) ends
    the prefix — records past it are *not* trusted, even if some later
    bytes would parse, because an interior fault means the file can no
    longer vouch for anything after it.
    """
    state = JournalState()
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return state, 0
    pos = 0
    size = len(data)
    header_size = _HEADER.size
    frame_overhead = header_size + _CRC.size
    while pos + frame_overhead <= size:
        magic, ftype, length = _HEADER.unpack_from(data, pos)
        if magic != MAGIC or ftype != FRAME_JOURNAL or length > MAX_JOURNAL_BODY:
            break
        total = frame_overhead + length
        if pos + total > size:
            break  # torn tail: the record was mid-write at the crash
        body = data[pos + header_size : pos + header_size + length]
        (expected,) = _CRC.unpack_from(data, pos + header_size + length)
        actual = zlib.crc32(data[pos + 2 : pos + header_size])
        actual = zlib.crc32(body, actual)
        if actual != expected:
            break
        try:
            record = decode_value(body)
        except CodecError:
            break
        state.apply(record)
        state.replayed += 1
        pos += total
    state.tail_discarded = size - pos
    return state, pos


class Journal:
    """One node's append-only write-ahead journal.

    Opening replays the file (longest valid prefix), truncates any
    invalid tail, and positions for append.  ``state`` is the live
    mirror: every note/record call updates it in memory immediately, so
    the owner can snapshot without re-reading disk.
    """

    def __init__(self, path: "str | Path"):
        self.path = Path(path)
        self.state, valid = replay_journal(self.path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._file = open(self.path, "r+b" if self.path.exists() else "w+b")
            self._file.truncate(valid)  # drop the torn/corrupt tail
            self._file.seek(valid)
        except OSError as exc:
            raise JournalError(f"cannot open journal {self.path}: {exc}") from None
        #: Coalesced hot-path notes, flushed by the owner's timer.
        self._send_notes: dict[int, int] = {}
        self._recv_notes: dict[int, tuple[int, int]] = {}
        self._buffered = 0
        self.appended = 0
        self.flushes = 0
        self.fsyncs = 0
        self._closed = False

    # -- hot-path notes (dict writes only; no encoding, no I/O) ------------
    def note_send(self, dst: int, seq: int) -> None:
        self._send_notes[dst] = seq
        if seq > self.state.send_seq.get(dst, 0):
            self.state.send_seq[dst] = seq

    def note_recv(self, src: int, epoch: int, next_expected: int) -> None:
        self._recv_notes[src] = (epoch, next_expected)
        self.state.recv_links[src] = (epoch, next_expected)

    # -- appends -----------------------------------------------------------
    def append(self, record: tuple, durable: bool = False) -> None:
        """Append one record.  ``durable`` records are the ones whose loss
        would change protocol behaviour: they flush and fsync before
        returning."""
        if self._closed:
            return
        frame = encode_frame(FRAME_JOURNAL, encode_value(record))
        self._file.write(frame)
        self.appended += 1
        self._buffered += len(frame)
        if durable:
            self._flush(True)
        elif self._buffered >= FLUSH_EVERY_BYTES:
            self._flush(False)

    def flush_notes(self) -> None:
        """Write out the coalesced seq notes and fsync them (the owner's
        timer calls this; so does transport stop, so the file holds exact
        link state)."""
        if self._closed:
            return
        notes = [("sseq", *note) for note in sorted(self._send_notes.items())]
        notes += [
            ("recv", src, *link) for src, link in sorted(self._recv_notes.items())
        ]
        self._send_notes.clear()
        self._recv_notes.clear()
        for record in notes:
            self.append(record)
        if notes or self._buffered:
            self._flush(True)

    def _flush(self, fsync: bool) -> None:
        self._file.flush()
        self.flushes += 1
        self._buffered = 0
        if fsync:
            os.fsync(self._file.fileno())
            self.fsyncs += 1

    # -- durable protocol records ------------------------------------------
    def record_epoch(self, epoch: int) -> None:
        self.state.apply(("epoch", epoch))
        self.append(("epoch", epoch), durable=True)

    def record_input(self, instance: object, value: object) -> None:
        self.state.apply(("input", instance, value))
        self.append(("input", instance, value), durable=True)

    def record_decision(self, instance: object, value: object, rnd: int) -> None:
        self.state.apply(("decision", instance, value, rnd))
        self.append(("decision", instance, value, rnd), durable=True)

    def record_coin(self, session: object, value: object) -> None:
        self.state.apply(("coin", session, value))
        self.append(("coin", session, value), durable=True)

    def record_shun_set(self, pids) -> None:
        snapshot = tuple(sorted(pids))
        self.state.apply(("shun", snapshot))
        self.append(("shun", snapshot), durable=True)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self.flush_notes()
        self._closed = True
        self._file.close()

    def stats(self) -> dict:
        return {
            "replayed": self.state.replayed,
            "tail_discarded": self.state.tail_discarded,
            "stale_records": self.state.stale_records,
            "unknown_records": self.state.unknown_records,
            "appended": self.appended,
            "flushes": self.flushes,
            "fsyncs": self.fsyncs,
        }
