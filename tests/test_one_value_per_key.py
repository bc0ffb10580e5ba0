"""One value per broadcast key (ROADMAP 23): the two equivocation gaps the
aggregation opened, reproduced through the reliable broadcast itself.

The paper runs one reliable broadcast per logical message, so every honest
process holds one value per ``(origin, key)``.  A fold ``(origin, "svec",
seq)`` or a vote vector ``(origin, "abav", seq)`` is not unique per key:
origin 4 broadcasts two of them that disagree on one key, the scheduler
hands them to processes 1 and 2 in opposite orders, and every handler keeps
the first delivery.  Each test asserts the paper's property; both fail on
this tree and are marked so until the echo claims a key once.
"""

from __future__ import annotations

import pytest

from repro.broadcast.manager import rb_message
from repro.config import SystemConfig
from repro.core.agreement import ABAV_TAG, ABAProcess
from repro.core.api import build_stack, make_coins
from repro.core.sessions import SVEC_MW, svec_sid
from repro.sim.scheduler import Scheduler

FIRST, SECOND = (4, "svec", 0), (4, "svec", 1)


class OppositeOrders(Scheduler):
    """Every RB message of bid ``late[dst]`` reaches ``dst`` 50 times late:
    process 1 delivers the first bid first, process 2 the second."""

    splits_envelopes = True  # one delay per logical message

    def __init__(self, first: tuple, second: tuple):
        self.late = {1: second, 2: first}

    def delay(self, src: int, dst: int, payload: object, now: float) -> float:
        message = rb_message(payload)
        return 50.0 if message is not None and message[0] == self.late.get(dst) else 1.0


@pytest.mark.xfail(strict=True, reason="ROADMAP 23")
def test_two_folds_with_different_l_sets_leave_one_l_hat_4():
    stack = build_stack(SystemConfig(n=4, seed=0), scheduler=OppositeOrders(FIRST, SECOND))
    make_coins(stack, "svss")  # the coin module claims the "svec" topic
    group = (SVEC_MW, ("cc", "solo", 0), 2, 2, 3, "dm")
    with stack.runtime.coalescing_step():
        for bid, members in ((FIRST, (1, 2, 3)), (SECOND, (1, 2, 4))):
            stack.broadcasts[4].broadcast(bid, ("svec", (("L", group, (1,), (members,)),)))
    stack.runtime.run_to_quiescence()
    sid = svec_sid(group, 1)
    held = {pid: stack.vss[pid].mw[sid].L_hat[4] for pid in (1, 2)}
    assert held[1] or held[2]  # not vacuous: a fold was delivered
    assert held[1] == held[2], held


@pytest.mark.xfail(strict=True, reason="ROADMAP 23")
def test_two_vote_vectors_with_different_votes_leave_one_vote():
    first, second = (4, ABAV_TAG, 0), (4, ABAV_TAG, 1)
    config = SystemConfig(n=4, seed=0)
    stack = build_stack(config, scheduler=OppositeOrders(first, second), with_vss=False)
    coins = make_coins(stack, ("ideal", 1.0))
    processes = {
        pid: ABAProcess(stack.runtime.host(pid), stack.broadcasts[pid], coins[pid], "x")
        for pid in (1, 2, 3)
    }
    with stack.runtime.coalescing_step():
        for bid, vote in ((first, 0), (second, 1)):
            stack.broadcasts[4].broadcast(bid, (ABAV_TAG, bid[2], (("x", 1, 1, vote),)))
    stack.runtime.run_to_quiescence()
    held = {pid: processes[pid].rounds[1].received[1].get(4) for pid in (1, 2)}
    assert held[1] is not None or held[2] is not None  # a vector was delivered
    assert held[1] == held[2], held
