"""Deterministic event queues for the discrete-event simulator.

Events are plain tuples ``(time, seq, dst, src, payload)`` ordered by
``(time, seq)``; the sequence number makes simultaneous deliveries
deterministic, so a run is a pure function of its
:class:`~repro.config.SystemConfig` seed and adversary.  Tuples (rather
than objects) keep the queue operations cheap: a queue moves hundreds of
thousands of messages per full-stack run.

Two implementations share the same interface:

* :class:`EventQueue` — a binary heap; the general-purpose queue for
  schedulers that produce arbitrary delays.
* :class:`BucketQueue` — a calendar queue keyed by exact timestamp.  With a
  unit-delay scheduler (:class:`~repro.sim.scheduler.Scheduler` /
  :class:`~repro.sim.scheduler.FifoScheduler`) almost every in-flight event
  shares one of a handful of timestamps, so a FIFO deque per timestamp plus
  a tiny heap of *distinct* times replaces one ``O(log n)`` heap operation
  per event with an ``O(1)`` append/popleft.  Pop order is identical to the
  heap's: earliest time first, FIFO (= sequence order) within a time.
"""

from __future__ import annotations

import heapq
from collections import deque

#: one scheduled delivery: (time, seq, dst, src, payload)
Event = tuple[float, int, int, int, object]


class EventQueue:
    """A seeded-deterministic priority queue of delivery events.

    The heap primitives are bound once at construction: ``push``/``pop``
    run millions of times per full-stack run, and skipping the module
    global lookup on each call is a measurable constant-factor win.
    """

    __slots__ = ("_heap", "_seq", "_heappush", "_heappop")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0
        self._heappush = heapq.heappush
        self._heappop = heapq.heappop

    def push(self, time: float, dst: int, src: int, payload: object) -> Event:
        event = (time, self._seq, dst, src, payload)
        self._seq += 1
        self._heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        return self._heappop(self._heap)

    def purge(self, dst: int) -> int:
        """Drop every queued delivery to ``dst`` except runtime-origin
        control events (``src == 0``); returns how many were dropped.

        The crash-recovery path: messages queued while a process was down
        must not surface after it recovers (they were sent to, and in the
        model accepted by, a dead process).  Relative order of every
        surviving event is untouched, so ``pop()`` and the hot loop replay
        identically.  ``pushed_total`` keeps counting the purged events —
        they *were* sent; recovery only decides they are never delivered.
        """
        heap = self._heap
        kept = [e for e in heap if e[2] != dst or e[3] == 0]
        dropped = len(heap) - len(kept)
        if dropped:
            # In-place so the runtime's hot loop, which binds the heap
            # list to a local, keeps draining the same object.
            heap[:] = kept
            heapq.heapify(heap)
        return dropped

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def pushed_total(self) -> int:
        """Total number of events ever pushed (== messages sent)."""
        return self._seq


class BucketQueue:
    """Calendar queue: FIFO buckets keyed by exact timestamp.

    Correct for any delay distribution, but only *faster* than the heap
    when many events share timestamps — the runtime selects it exactly when
    the scheduler advertises a fixed delay (see
    :meth:`~repro.sim.scheduler.Scheduler.fixed_delay`), which guarantees
    timestamps are reused heavily.  Because simulated delays are strictly
    positive, no push can land in the bucket currently being drained, so
    FIFO-per-bucket reproduces global ``(time, seq)`` order bit-for-bit.
    """

    __slots__ = ("_buckets", "_times", "_seq", "_len", "_heappush")

    def __init__(self) -> None:
        self._buckets: dict[float, deque[Event]] = {}
        self._times: list[float] = []  # heap of *distinct* timestamps
        self._seq = 0
        self._len = 0
        self._heappush = heapq.heappush

    def push(self, time: float, dst: int, src: int, payload: object) -> Event:
        event = (time, self._seq, dst, src, payload)
        self._seq += 1
        self._len += 1
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._buckets[time] = deque()
            self._heappush(self._times, time)
        bucket.append(event)
        return event

    def push_fanout(self, time: float, src: int, payload: object, n: int) -> None:
        """Push one delivery of ``payload`` to every pid ``1..n`` at ``time``.

        The bucket is resolved once for the whole fan-out, so an n-process
        ``send_all`` costs one dict lookup plus ``n`` deque appends.
        """
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._buckets[time] = deque()
            self._heappush(self._times, time)
        append = bucket.append
        seq = self._seq
        for dst in range(1, n + 1):
            append((time, seq, dst, src, payload))
            seq += 1
        self._seq = seq
        self._len += n

    def pop(self) -> Event:
        times = self._times
        buckets = self._buckets
        while True:
            time = times[0]
            bucket = buckets[time]
            if bucket:
                break
            # The runtime's hot loop may exit mid-step (predicate satisfied,
            # max_events exceeded) right after draining a bucket, leaving
            # the empty deque registered; skip and reclaim it here.
            del buckets[time]
            heapq.heappop(times)
        event = bucket.popleft()
        if not bucket:
            del buckets[time]
            heapq.heappop(times)
        self._len -= 1
        return event

    def purge(self, dst: int) -> int:
        """Drop every queued delivery to ``dst`` except runtime-origin
        control events (``src == 0``); returns how many were dropped.

        The deques are rebuilt *in place* and no bucket or timestamp entry
        is removed, even when a bucket empties: the runtime's hot loop
        holds direct references to the deque it is draining and reclaims
        empty buckets itself (``pop()`` also tolerates them), so purge must
        never invalidate those references.
        """
        dropped = 0
        for bucket in self._buckets.values():
            kept = [e for e in bucket if e[2] != dst or e[3] == 0]
            removed = len(bucket) - len(kept)
            if removed:
                bucket.clear()
                bucket.extend(kept)
                dropped += removed
        self._len -= dropped
        return dropped

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    @property
    def pushed_total(self) -> int:
        """Total number of events ever pushed (== messages sent)."""
        return self._seq
