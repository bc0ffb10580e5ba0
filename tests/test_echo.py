"""The decision echo (``core.agreement.DecisionEcho``) on the simulator.

A process that lost its run asks once; holders answer at once, running
processes when they decide; the asker adopts on ``t + 1`` matching answers
from distinct pids.  Forged answers grant nothing below that quorum, a
repeated answer counts once, forged asks and answers grow no state,
malformed payloads are dropped, an asker is dropped with the process it
waited on, and a run in which nobody asks sends no echo message.  The
planted bug (the quorum lowered to ``t``) must let ``t`` colluding forgers
make the armed monitor fire.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.config import SystemConfig
from repro.core.agreement import ANSWER_TAG, ASK_TAG, DecisionEcho
from repro.core.api import (
    DEFAULT_INSTANCE,
    AgreementDriver,
    build_stack,
    make_coins,
    run_byzantine_agreement,
)
from repro.net.cluster import NetCluster
from repro.sim.monitor import InvariantMonitor, InvariantViolation
from repro.sim.scheduler import FifoScheduler

IID = ("aba", "lost")


def stack_of(n):
    return build_stack(SystemConfig(n=n, seed=n), scheduler=FifoScheduler(), with_vss=False)


def echoes(stack):
    return {pid: DecisionEcho.of(stack.runtime.host(pid)) for pid in stack.config.pids}


def send(stack, src, dst, payload):
    stack.runtime.host(src).send(dst, payload, "echo")


def adoptions(echo):
    got = []
    echo.on_adopt = lambda iid, pid, value, rnd: got.append((iid, value))
    return got


@pytest.mark.parametrize("n", [4, 7])
def test_t_forgers_never_cause_an_adoption(n):
    stack = stack_of(n)
    t = stack.config.t
    echo = echoes(stack)
    got = adoptions(echo[1])
    echo[1].ask(IID)
    for forger in range(2, t + 2):
        send(stack, forger, 1, (ANSWER_TAG, IID, 0))
    stack.runtime.run_to_quiescence()
    assert got == [] and IID not in echo[1].held
    assert echo[1].answers[IID] == [sum(1 << p for p in range(2, t + 2)), 0]


@pytest.mark.parametrize("n", [4, 7])
def test_a_repeated_answer_counts_once(n):
    stack = stack_of(n)
    t = stack.config.t
    echo = echoes(stack)
    got = adoptions(echo[1])
    echo[1].ask(IID)
    for value in [1] * (t + 1) + [0] * (t + 1):
        send(stack, 2, 1, (ANSWER_TAG, IID, value))  # first answer stands
    for forger in range(3, t + 2):
        send(stack, forger, 1, (ANSWER_TAG, IID, 1))
    stack.runtime.run_to_quiescence()
    assert got == [] and echo[1].answers[IID][0] == 0


@pytest.mark.parametrize("n", [4, 7])
def test_t_plus_one_honest_answers_adopt(n):
    """t forgers answer 0 first; t + 1 holders of 1 answer the ask."""
    stack = stack_of(n)
    t = stack.config.t
    echo = echoes(stack)
    got = adoptions(echo[1])
    holders = range(t + 2, 2 * t + 3)
    for pid in holders:
        echo[pid].hold(IID, 1)
    echo[1].ask(IID)
    for forger in range(2, t + 2):
        send(stack, forger, 1, (ANSWER_TAG, IID, 0))
    stack.runtime.run_to_quiescence()
    assert got == [(IID, 1)] and echo[1].held[IID] == 1
    assert IID not in echo[1].answers  # collection ends with the adoption
    assert stack.trace.messages_by_layer["echo"] == (n - 1) + t + len(holders)


def run_with_a_lost_process(n, quorum_of=None, forge=False):
    """Every process but pid 1 runs ``IID`` on inputs 1 under an armed
    monitor; pid 1 asks before anyone decides.  ``quorum_of(t)`` patches
    pid 1's adoption quorum, ``forge`` has t colluders answer 0 at once."""
    stack = stack_of(n)
    runtime = stack.runtime
    t = stack.config.t
    monitor = InvariantMonitor()
    monitor.install(runtime)
    coins = make_coins(stack, ("ideal", 1.0))
    driver = AgreementDriver(
        [runtime.host(pid) for pid in stack.config.pids],
        {IID: {pid: 1 for pid in stack.config.pids if pid != 1}},
        {IID: coins},
    )
    echo = DecisionEcho.of(runtime.host(1))
    if quorum_of is not None:
        echo.quorum = quorum_of(t)
    echo.ask(IID)
    if forge:
        for forger in range(n - t + 1, n + 1):
            send(stack, forger, 1, (ANSWER_TAG, IID, 0))
    return stack, driver, monitor


@pytest.mark.parametrize("n", [4, 7])
def test_an_ask_before_the_decision_is_answered_at_it(n):
    stack, driver, monitor = run_with_a_lost_process(n)
    others = echoes(stack)
    stack.runtime.run_until(
        lambda: all(others[p].askers.get(IID, 0) >> 1 & 1 for p in range(2, n + 1))
    )
    assert driver.decisions[IID] == {}  # asked before anyone decided
    stack.runtime.run_until(driver.finished, on_change=True)
    assert driver.decisions[IID] == dict.fromkeys(stack.config.pids, 1)
    assert all(not others[p].askers for p in range(2, n + 1))
    assert (IID, 1, 1, 0) in monitor.verdict()["decisions"]


def test_a_process_closing_undecided_drops_its_askers():
    """An ask waits in ``askers`` only while a process runs the instance:
    one that closes undecided (``NetCluster.run_agreement`` closes its
    processes when it returns) will never answer, and the entry goes."""
    stack, driver, _ = run_with_a_lost_process(4)
    others = echoes(stack)
    stack.runtime.run_until(lambda: all(others[p].askers.get(IID, 0) >> 1 & 1 for p in (2, 3)))
    process = driver.processes[IID][2]
    assert process.decided is None
    process.close()
    assert others[2].askers == {} and others[2].held == {}
    assert others[3].askers[IID] >> 1 & 1  # still running: still waiting


def test_planted_bug_a_quorum_of_t_lets_forgers_break_agreement():
    """Negative fixture: with the quorum lowered to t, t colluders make an
    honest asker adopt 0 while everyone else decides 1, and the monitor
    fires; at the real quorum the same run is clean."""
    stack, driver, _ = run_with_a_lost_process(4, quorum_of=lambda t: t, forge=True)
    with pytest.raises(InvariantViolation) as err:
        stack.runtime.run_until(driver.finished, on_change=True)
    assert err.value.kind == "agreement-safety"
    stack, driver, _ = run_with_a_lost_process(4, forge=True)
    stack.runtime.run_until(driver.finished, on_change=True)
    assert driver.decisions[IID][1] == 1


@pytest.mark.parametrize("n", [4, 7])
def test_malformed_and_unasked_payloads_are_dropped(n):
    stack = stack_of(n)
    echo = echoes(stack)
    echo[1].ask(IID)
    junk = [
        (ANSWER_TAG,), (ANSWER_TAG, IID), (ANSWER_TAG, IID, 1, 1),
        (ANSWER_TAG, IID, 2), (ANSWER_TAG, IID, 1.0), (ANSWER_TAG, IID, True),
        (ANSWER_TAG, IID, None), (ANSWER_TAG, IID, [1]), (ANSWER_TAG, [IID], 1),
        (ASK_TAG,), (ASK_TAG, IID, 1), (ASK_TAG, [IID]), (ASK_TAG, {"i": 1}),
    ]
    for src in range(2, n + 1):
        for payload in junk:
            send(stack, src, 1, payload)
        for k in range(50):  # asks and answers for instances 1 never asked
            send(stack, src, 1, (ASK_TAG, ("aba", k)))
            send(stack, src, 1, (ANSWER_TAG, ("aba", k), 1))
    stack.runtime.run_to_quiescence()
    assert echo[1].answers == {IID: [0, 0]}
    assert echo[1].askers == {} and echo[1].held == {}


@pytest.mark.parametrize("n", [4, 7])
def test_a_run_where_nobody_asks_pushes_no_echo_message(n):
    result = run_byzantine_agreement([0, 1] * (n // 2) + [1] * (n % 2),
                                     SystemConfig(n=n, seed=3), coin=("ideal", 1.0))
    assert result.agreed
    assert "echo" not in result.trace.messages_by_layer


def test_a_socket_run_where_nobody_asks_pushes_no_echo_message():
    async def main():
        cluster = NetCluster(SystemConfig(n=4, seed=5))
        await cluster.start()
        try:
            decisions = await cluster.run_agreement([1, 1, 1, 1], coin="local")
        finally:
            await cluster.close()
        assert decisions == {1: 1, 2: 1, 3: 1, 4: 1}
        for node in cluster.nodes.values():
            assert "echo" not in node.runtime.trace.messages_by_layer
            assert node.host.module("echo").held == {DEFAULT_INSTANCE: 1}

    asyncio.run(main())
