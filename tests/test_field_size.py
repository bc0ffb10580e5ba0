"""A fault-free run does not depend on the field's size
(``docs/ALGEBRA.md``, "How big the field must be").

The default prime is 251 (``SystemConfig`` derives it from n); the values
the dealers draw differ from those at 2³¹ − 1, but no message's timing or
count depends on a value, so the run is the same event for event.
"""

from __future__ import annotations

import pytest

from repro import SystemConfig, flip_common_coin
from repro.sim.scheduler import FifoScheduler


def coin_record(config: SystemConfig) -> dict:
    result, _ = flip_common_coin(config, scheduler=FifoScheduler())
    return {
        "outputs": result.outputs,
        "events_dispatched": result.events_dispatched,
        "logical_messages": result.logical_messages,
        "dmm_verdict_calls": result.dmm_verdict_calls,
        "shuns": [
            (rec.observer, rec.culprit, rec.session, rec.time)
            for rec in result.trace.shun_records
        ],
    }


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("seed", range(3))
def test_a_fault_free_coin_does_not_depend_on_the_prime(n, seed):
    default = SystemConfig(n=n, seed=seed)
    assert default.prime == 251
    small = coin_record(default)
    assert small == coin_record(SystemConfig(n=n, prime=2**31 - 1, seed=seed))
    assert len(set(small["outputs"].values())) == 1
