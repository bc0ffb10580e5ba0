"""E7 / Figure 3 — polynomial efficiency (paper abstract, §1).

Holds every layer's logical-message count to its exact bill, derived from
the protocol steps in ``tests/reference/bills.py`` (``R = 2n² + n`` per
reliable broadcast, ``t = (n - 1) // 3``):

* RB: ``2n² + n``;
* MW-SVSS share + reconstruct: ``(n² + 3n + 1) + (3n + 2 + rv)·R`` with
  ``n - t <= rv <= n``;
* SVSS: ``(2n²(n² + 3n + 1) + n) + (2n²(2n + 2) + 1 + rv)·R`` with
  ``2(n - t)³ <= rv <= 2n³``;
* the coin: ``n²·(SVSS private) + (n²(2n²(2n + 2) + 1) + 2n + rv)·R`` with
  ``2n(n - t)⁴ <= rv <= 2n⁵``.

``rv`` (the reconstruct-value broadcasts) is the only term the schedule
moves; FIFO makes the lower bound.  Every run is scheduled per message
(``SCHEDULERS["per-message"]``: the default scheduler's seeded delays,
envelopes and session vectors both vetoed), so the counts are the paper's
literal bill — one message per session per recipient — not the packed
transport's.  Each kind of message is counted on its own and must equal
its bill exactly, ``rv`` inside its bounds.  The coin at n = 10, 13 and 16
is reported from the formula, between its ``rv`` bounds (one n = 10 coin
is over 10⁸ logical messages on this wire).
"""

from __future__ import annotations

import pathlib
import sys

from repro.analysis.tables import render_table
from repro.config import SystemConfig
from repro.core.api import build_stack
from repro.sim.experiments import SCHEDULERS

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from reference.bills import BILLS, measure, rb  # noqa: E402

RB_NS = (4, 7, 10, 13, 16, 20)
MEASURED = {"mwsvss": (4, 7, 10, 13), "svss": (4, 7, 10), "coin": (4, 5)}
COIN_FORMULA_NS = (10, 13, 16)


def _rb_messages(n: int) -> int:
    cfg = SystemConfig(n=n, seed=0)
    stack = build_stack(cfg, scheduler=SCHEDULERS["per-message"](cfg), with_vss=False)
    stack.broadcasts[1].subscribe("x", lambda o, v: None)
    stack.broadcasts[1].broadcast((1, "x", 0), ("x", "payload"))
    stack.runtime.run_to_quiescence()
    return stack.trace.total_messages


def _measured():
    """(layer, n, rv) of every seeded per-message run; ``measure`` raises
    unless each kind's count is its bill and ``rv`` is inside its bounds."""
    runs = []
    for layer, ns in MEASURED.items():
        for n in ns:
            cfg = SystemConfig(n=n, seed=0)
            runs.append((layer, n, measure(layer, cfg, SCHEDULERS["per-message"](cfg))))
    return runs


def test_e7_complexity(benchmark, emit):
    def experiment():
        return [(n, _rb_messages(n)) for n in RB_NS], _measured()

    rb_runs, runs = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [["RB", n, f"{msgs:,}", "-", "-"] for n, msgs in rb_runs]
    for layer, n, rv in runs:
        bill = BILLS[layer](n, (n - 1) // 3)
        rows.append([layer, n, f"{bill.total(rv):,}", rv, f"[{bill.rv[0]}, {bill.rv[1]}]"])
    for n in COIN_FORMULA_NS:
        bill = BILLS["coin"](n, (n - 1) // 3)
        low, high = bill.rv
        rows.append(
            ["coin (formula)", n, f"{bill.total(low):,} .. {bill.total(high):,}", "-", f"[{low}, {high}]"]
        )
    emit(
        render_table(
            "E7 (Figure 3): logical messages per layer, seeded per-message schedule",
            ["layer", "n", "messages", "rv", "rv bounds"],
            rows,
            note="every kind of message equals its bill (tests/reference/bills.py); "
            "rv, the one schedule-dependent term, inside its derived bounds",
        )
    )
    for n, msgs in rb_runs:
        assert msgs == rb(n)
