"""Run accounting: message counts per layer, shun records.

The paper's efficiency claims are about expected message/bit/round counts.
The simulator counts messages and rounds; bits are not estimated here —
a payload's exact size is ``len(repro.net.codec.encode_value(payload))``,
the canonical wire encoding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

#: Not an option: nothing in ``src/`` reads it.  The frozen e2e harness
#: (``benchmarks/e2e/worker.py``) still imports the name; ROADMAP 1a drops
#: those imports, then this line goes.
TRACE_OFF = 0


@dataclass
class ShunRecord:
    """One DMM detection: ``observer`` added ``culprit`` to its D set."""

    observer: int
    culprit: int
    session: object
    time: float


@dataclass
class Trace:
    """Counters for one run, always on: logical messages per layer and
    the DMM's shun records (``docs/ARCHITECTURE.md``, "Accounting")."""

    messages_by_layer: Counter = field(default_factory=Counter)
    shun_records: list[ShunRecord] = field(default_factory=list)

    # -- recording -----------------------------------------------------------
    def record_send(self, layer: str) -> None:
        self.messages_by_layer[layer] += 1

    def record_send_many(self, layer: str, count: int) -> None:
        """Record ``count`` identical sends at once (the ``send_all`` fast
        path): one counter update instead of ``count``.  Totals match
        ``count`` calls to :meth:`record_send` exactly."""
        self.messages_by_layer[layer] += count

    def record_shun(self, observer: int, culprit: int, session: object, time: float) -> None:
        self.shun_records.append(ShunRecord(observer, culprit, session, time))

    # -- reading ----------------------------------------------------------------
    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_layer.values())

    def shun_pairs(self) -> set[tuple[int, int]]:
        """Distinct (observer, culprit) pairs — the budget the paper bounds
        by ``t * (n - t)``."""
        return {(rec.observer, rec.culprit) for rec in self.shun_records}

    def summary(self) -> dict[str, object]:
        return {
            "messages": dict(self.messages_by_layer),
            "total_messages": self.total_messages,
            "shun_events": len(self.shun_records),
            "shun_pairs": len(self.shun_pairs()),
        }
