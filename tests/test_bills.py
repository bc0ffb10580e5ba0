"""Exact message bills: every layer's logical-message count is a closed form.

The bills are derived step by step in ``tests/reference/bills.py``; here
each one is pinned by exact equality against a run of the entry point
(dealer 1, moderator 2, every logical message counted).  Under
``per_message(FifoScheduler())`` at seed 0 the whole bill is fixed, ``rv``
included (FIFO reaches its lower bound): ``trace.messages_by_layer``
equals it layer by layer.  Under the seeded uniform per-message wire
(``SCHEDULERS["per-message"]``, seeds 0 and 1) every kind but ``rv``, as
a :class:`~reference.bills.KindTap` counts it, equals its FIFO count, and
``rv`` lies inside its derived bounds.  The uniform n = 5 coin (≈ 11 s)
runs in ``benchmarks/bench_e7_complexity.py`` instead.
"""
from __future__ import annotations

import pytest
from reference.bills import BILLS, closed_form, measure, run

from repro.adversary.schedulers import per_message
from repro.config import SystemConfig
from repro.sim.experiments import SCHEDULERS
from repro.sim.scheduler import FifoScheduler


#: Totals of the FIFO per-message runs, as the entry points measured them.
FIFO_TOTALS = {
    "mwsvss": {4: 497, 5: 921, 6: 1537, 7: 2276, 8: 3353, 9: 4726, 10: 6221},
    "svss": {4: 14432, 5: 42150, 6: 102168, 7: 197960},
    "coin": {4: 223424, 5: 1019100},
}

FIFO_RUNS = [("mwsvss", n) for n in range(4, 14)] + [
    ("svss", n) for n in range(4, 8)
] + [("coin", 4), ("coin", 5)]

UNIFORM_RUNS = [("mwsvss", n) for n in range(4, 11)] + [
    ("svss", 4),
    ("svss", 5),
    ("svss", 7),
    ("coin", 4),
]


@pytest.mark.parametrize("layer", sorted(BILLS))
def test_bill_is_the_closed_form(layer):
    for n in range(4, 17):
        bill = BILLS[layer](n, (n - 1) // 3)
        assert bill.total(bill.rv[0]) == closed_form(layer, n)
    for n, total in FIFO_TOTALS[layer].items():
        assert closed_form(layer, n) == total


def test_rv_bounds():
    for n in range(4, 17):
        t = (n - 1) // 3
        assert BILLS["mwsvss"](n, t).rv == (n - t, n)
        assert BILLS["svss"](n, t).rv == (2 * (n - t) ** 3, 2 * n**3)
        assert BILLS["coin"](n, t).rv == (2 * n * (n - t) ** 4, 2 * n**5)


@pytest.mark.parametrize("layer,n", FIFO_RUNS)
def test_fifo_bill(layer, n):
    config = SystemConfig(n=n, seed=0)
    bill = BILLS[layer](n, config.t)
    layers = run(layer, config, per_message(FifoScheduler()))
    assert layers == bill.layers(bill.rv[0])
    assert sum(layers.values()) == closed_form(layer, n)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("layer,n", UNIFORM_RUNS)
def test_uniform_bill(layer, n, seed):
    """``measure`` holds every kind but ``rv`` to the FIFO bill, by kind
    and by layer, and ``rv`` to its bounds."""
    config = SystemConfig(n=n, seed=seed)
    measure(layer, config, SCHEDULERS["per-message"](config))
