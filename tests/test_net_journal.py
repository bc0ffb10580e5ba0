"""Write-ahead journal tests: :mod:`repro.net.journal`.

The journal is what makes a ``kill -9``'d node restartable with its
identity intact, so the corruption tests here are the load-bearing ones:
a torn tail (crash mid-write), a flipped byte mid-record (disk rot), and
stale-epoch records must all replay to the longest valid prefix — never
raise, never trust anything past the first fault — and a node reopened
on the damaged file must still rejoin safely.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.config import SystemConfig
from repro.net import launch
from repro.net.journal import Journal, replay_journal
from repro.net.launch import run_processes
from repro.net.transport import NetworkNode, TransportConfig


FAST = TransportConfig(
    connect_timeout=0.5,
    backoff_base=0.02,
    backoff_max=0.2,
    heartbeat_interval=0.1,
    idle_timeout=1.0,
    down_after=0.5,
    journal_flush_interval=0.02,
)


# ---------------------------------------------------------------------------
# Roundtrip and fold semantics
# ---------------------------------------------------------------------------


def test_roundtrip_restores_full_state(tmp_path):
    path = tmp_path / "node.journal"
    journal = Journal(path)
    journal.record_epoch(3)
    journal.note_send(2, 41)
    journal.note_send(2, 42)  # coalesced: only the latest survives a flush
    journal.note_recv(4, 1, 17)
    journal.flush_notes()
    journal.record_input("aba", 1)
    journal.record_decision("aba", 1, 2)
    journal.record_coin(("cc", "solo", 0), 1)
    journal.record_shun_set({3, 2})
    journal.close()

    state, valid = replay_journal(path)
    assert valid == path.stat().st_size
    assert state.epoch == 3
    assert state.send_seq == {2: 42}
    assert state.recv_links == {4: (1, 17)}
    assert state.inputs == {"aba": 1}
    assert state.decisions == {"aba": (1, 2)}
    assert state.coins == {("cc", "solo", 0): 1}
    assert state.shunned == (2, 3)
    assert state.tail_discarded == 0


def test_missing_file_is_empty_journal(tmp_path):
    state, valid = replay_journal(tmp_path / "never-written.journal")
    assert valid == 0
    assert state.epoch == 0
    assert state.replayed == 0


def test_monotonic_fold_never_regresses(tmp_path):
    path = tmp_path / "node.journal"
    journal = Journal(path)
    journal.record_epoch(5)
    journal.append(("epoch", 2), durable=True)  # stale: must not regress
    journal.append(("sseq", 3, 100), durable=True)
    journal.append(("sseq", 3, 40), durable=True)  # stale
    journal.append(("recv", 4, 2, 50), durable=True)
    journal.append(("recv", 4, 1, 90), durable=True)  # older sender epoch
    journal.close()

    state, _ = replay_journal(path)
    assert state.epoch == 5
    assert state.send_seq == {3: 100}
    assert state.recv_links == {4: (2, 50)}
    assert state.stale_records == 3


def test_input_first_wins_decision_last_wins(tmp_path):
    path = tmp_path / "node.journal"
    journal = Journal(path)
    journal.record_input("aba", 0)
    journal.record_input("aba", 1)  # ignored: inputs are immutable
    journal.record_decision("aba", 0, 3)
    journal.record_decision("aba", 1, 4)  # last wins (tamper fixtures use this)
    journal.close()
    state, _ = replay_journal(path)
    assert state.inputs == {"aba": 0}
    assert state.decisions == {"aba": (1, 4)}


def test_unknown_records_are_counted_not_fatal(tmp_path):
    path = tmp_path / "node.journal"
    journal = Journal(path)
    journal.append(("from-the-future", 1, 2), durable=True)
    journal.record_epoch(2)
    journal.close()
    state, valid = replay_journal(path)
    assert state.unknown_records == 1
    assert state.epoch == 2
    assert valid == path.stat().st_size


#: The socket layer's deleted modes: each spelling fails loudly.
REMOVED = {
    "run_processes-auth": (TypeError, lambda p: run_processes(4, auth=False)),
    "Journal-fsync": (TypeError, lambda p: Journal(p, fsync="never")),
    "Journal-flush_every_bytes": (
        TypeError, lambda p: Journal(p, flush_every_bytes=1)
    ),
    "TransportConfig-journal_fsync": (
        TypeError, lambda p: TransportConfig(journal_fsync="always")
    ),
    "launch-no-auth": (
        SystemExit, lambda p: launch._build_parser().parse_args(["--no-auth"])
    ),
    "launch-secret": (
        SystemExit,
        lambda p: launch._build_parser().parse_args(["--secret", "00"]),
    ),
}


@pytest.mark.parametrize("where", REMOVED)
def test_removed_option_fails(where, tmp_path):
    error, call = REMOVED[where]
    with pytest.raises(error):
        call(tmp_path / "x.journal")
    assert not (tmp_path / "x.journal").exists()


def test_one_durability_policy(tmp_path, monkeypatch):
    """Each durable record is one fsync, hot-path notes are none, and the
    next flush of the notes is one — counted at ``os.fsync`` itself."""
    synced = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        synced.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    journal = Journal(tmp_path / "node.journal")
    durable = (
        lambda: journal.record_epoch(1),
        lambda: journal.record_input("aba", 1),
        lambda: journal.record_decision("aba", 1, 2),
        lambda: journal.record_coin(("cc", "solo", 0), 1),
        lambda: journal.record_shun_set({3, 2}),
    )
    for record in durable:
        before = len(synced)
        record()
        assert len(synced) == before + 1
    before = len(synced)
    for seq in range(1, 2000):
        journal.note_send(2, seq)
        journal.note_recv(3, 1, seq)
    assert len(synced) == before
    journal.flush_notes()
    assert len(synced) == before + 1
    journal.flush_notes()  # nothing noted since: nothing to sync
    assert len(synced) == before + 1
    assert journal.fsyncs == len(synced)
    journal.close()


# ---------------------------------------------------------------------------
# Corruption: torn tail, flipped byte, reopen truncation
# ---------------------------------------------------------------------------


def _journal_with_records(path, count=8):
    journal = Journal(path)
    journal.record_epoch(1)
    for i in range(count):
        journal.record_decision(f"inst-{i}", i % 2, i)
    journal.close()
    return path.read_bytes()


def test_torn_tail_replays_prefix(tmp_path):
    path = tmp_path / "node.journal"
    data = _journal_with_records(path)
    path.write_bytes(data[:-5])  # crash mid-write of the final record

    state, valid = replay_journal(path)
    assert state.replayed == 8  # epoch + 7 full decisions
    assert state.tail_discarded == len(data) - 5 - valid
    assert state.tail_discarded > 0
    assert "inst-7" not in state.decisions
    assert state.decisions["inst-6"] == (0, 6)


def test_flipped_byte_mid_record_ends_prefix(tmp_path):
    path = tmp_path / "node.journal"
    data = bytearray(_journal_with_records(path))
    # Flip one byte around the middle: everything after the damaged
    # record is untrusted even if it would parse.
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))

    state, valid = replay_journal(path)
    assert 0 < state.replayed < 9
    assert valid < len(data)
    assert state.tail_discarded == len(data) - valid


def test_reopen_truncates_corrupt_tail_and_appends(tmp_path):
    path = tmp_path / "node.journal"
    data = _journal_with_records(path)
    path.write_bytes(data[:-5])

    journal = Journal(path)  # truncates the torn tail on open
    assert journal.state.tail_discarded > 0
    journal.record_decision("post-crash", 1, 0)
    journal.close()

    state, valid = replay_journal(path)
    assert valid == path.stat().st_size  # the file is fully valid again
    assert state.decisions["post-crash"] == (1, 0)
    assert state.tail_discarded == 0


def test_stale_epoch_record_keeps_highest(tmp_path):
    path = tmp_path / "node.journal"
    journal = Journal(path)
    journal.record_epoch(4)
    journal.close()
    # A (tampered or duplicated) stale epoch appended later must not win.
    journal = Journal(path)
    journal.append(("epoch", 1), durable=True)
    journal.close()
    state, _ = replay_journal(path)
    assert state.epoch == 4
    assert state.stale_records == 1


# ---------------------------------------------------------------------------
# A node still rejoins on a damaged journal
# ---------------------------------------------------------------------------


def test_node_rejoins_safely_from_corrupt_journal(tmp_path):
    """Torn journal tail → the node opens at the replayed prefix, bumps
    its epoch past the journaled one, and traffic flows again."""
    config = SystemConfig(n=4, seed=7)
    path = tmp_path / "node-1.journal"

    async def main():
        a = NetworkNode(config, 1, path, tconfig=FAST)
        b = NetworkNode(config, 2, tmp_path / "node-2.journal", tconfig=FAST)
        got = []
        b.host.register_handler("msg", lambda src, p: got.append(p[1]))
        await a.start_server()
        await b.start_server()
        book = {1: ("127.0.0.1", a.port), 2: ("127.0.0.1", b.port)}
        for node in (a, b):
            node.set_peers(book)
            node.start_peers()
        for i in range(20):
            a.dispatch_out(2, ("msg", i))
        await b.wait_for(lambda: len(got) == 20, timeout=10)
        old_epoch = a.epoch
        await a.close()  # flushes notes; journal now has link state
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # tear the tail

        a2 = NetworkNode(config, 1, path, tconfig=FAST)
        assert a2.epoch > old_epoch
        assert a2.journal.state.replayed > 0
        await a2.start_server(a.port)
        a2.set_peers(book)
        a2.start_peers()
        for i in range(20, 40):
            a2.dispatch_out(2, ("msg", i))
        await b.wait_for(lambda: len(got) == 40, timeout=10)
        # Exactly-once across the crash: nothing re-delivered, no gaps.
        assert got == list(range(40))
        await a2.close()
        await b.close()

    asyncio.run(main())
