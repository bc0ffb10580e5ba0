"""Footprint regression: bytes of traced heap per MW-SVSS instance.

One coin = 2n⁴ MW-SVSS sessions × n process views, all alive at once in the
share phase, so what one instance and its DMM ledger hold *is* the coin's
memory (``docs/MEMORY.md`` has the table by module and line).  The state is
words and rows — pid sets as ``int`` bitmasks, pid → value maps as lists,
one DMM ledger per session; a ``set()`` or a ``dict`` per fact costs
200–700 bytes apiece and this bound is where it would show.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.config import SystemConfig
from repro.core.api import flip_common_coin
from repro.sim.scheduler import FifoScheduler

#: Measured 2 948 B per instance (3 948 B with ``acks`` / ``L`` /
#: ``confirm_values`` / ``L_hat`` as containers and six global DMM tables).
BYTES_PER_INSTANCE = 3300


def coin(seed: int):
    return flip_common_coin(SystemConfig(n=4, seed=seed), scheduler=FifoScheduler())


def test_traced_peak_of_a_coin_per_mw_instance():
    coin(1)  # warm-up: imports, cached bases and memos are not the coin's
    gc.collect()
    tracemalloc.start()
    try:
        result, stack = coin(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(result.outputs.values())) == 1
    instances = sum(len(vss.mw) for vss in stack.vss.values())
    assert instances == 4 * 16 * 32
    per_instance = peak / instances
    assert per_instance <= BYTES_PER_INSTANCE, f"{per_instance:.0f} B per MW instance"
