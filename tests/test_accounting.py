"""Accounting is not an option.

``Trace`` (logical messages per layer, shun records) counts on every run
of both runtimes; the ``trace_level=`` keyword that used to switch it off
— and, at its default, armed the ABA fixpoint cross-check inside the
product path — is gone from all twelve places that took it.  A run that
shuns says so through every entry point called with no accounting
argument: the DMM's own ``D`` sets and the invariant monitor's verdict are
the ground truth the trace is held to.
"""

from __future__ import annotations

import asyncio
from random import Random

import pytest

import repro.sim
import repro.sim.tracing
from repro import (
    SystemConfig,
    flip_common_coin,
    run_byzantine_agreement,
    run_byzantine_agreement_batch,
    run_mwsvss,
    run_svss,
)
from repro import scenarios
from repro.adversary.behaviors import LyingReconstructorBehavior
from repro.adversary.controller import Adversary
from repro.core.api import build_stack
from repro.net.cluster import NetCluster
from repro.net.transport import NetRuntime, NetworkNode
from repro.sim.experiments import (
    ADVERSARIES,
    INPUT_PATTERNS,
    SCHEDULERS,
    Scenario,
    run_scenario,
)
from repro.sim.monitor import InvariantMonitor
from repro.sim.runtime import Runtime
from repro.sim.tracing import Trace

CONFIG = SystemConfig(n=4, seed=0)

#: Every place ``trace_level=`` (``level=`` on ``Trace``) could be set.
REMOVED = {
    "Runtime": lambda **kw: Runtime(CONFIG, **kw),
    "build_stack": lambda **kw: build_stack(CONFIG, **kw),
    "run_byzantine_agreement": lambda **kw: run_byzantine_agreement(
        [0, 1, 1, 0], CONFIG, coin=("ideal", 1.0), **kw
    ),
    "run_byzantine_agreement_batch": lambda **kw: run_byzantine_agreement_batch(
        [[0, 1, 1, 0]], CONFIG, coin=("ideal", 1.0), **kw
    ),
    "run_mwsvss": lambda **kw: run_mwsvss(CONFIG, 1, 2, 7, **kw),
    "run_svss": lambda **kw: run_svss(CONFIG, 1, 7, **kw),
    "flip_common_coin": lambda **kw: flip_common_coin(CONFIG, **kw),
    "NetRuntime": lambda **kw: NetRuntime(None, CONFIG, **kw),
    "NetworkNode": lambda **kw: NetworkNode(CONFIG, 1, **kw),
    "NetCluster": lambda **kw: NetCluster(CONFIG, **kw),
    "Scenario": lambda **kw: Scenario(n=4, seed=0, **kw),
    "Trace": lambda **kw: Trace(level=kw["trace_level"]),
}


@pytest.mark.parametrize("where", REMOVED)
def test_the_knob_is_gone(where):
    keyword = "level" if where == "Trace" else "trace_level"
    with pytest.raises(TypeError, match=keyword):
        REMOVED[where](trace_level=0)


def test_the_level_names_are_gone():
    assert not hasattr(repro.sim.tracing, "TRACE_COUNTS")
    assert not hasattr(repro.sim.tracing, "TRACE_FULL")
    assert not any(name.startswith("TRACE_") for name in repro.sim.__all__)
    assert not hasattr(repro.sim, "TRACE_OFF")
    # The frozen e2e harness imports this one name (ROADMAP 1a).
    assert repro.sim.tracing.TRACE_OFF == 0


# -- a run that shuns says so --------------------------------------------------


def liar() -> Adversary:
    """Process 1 lies in reconstruct: the behaviour the DMM catches."""
    return Adversary({1: LyingReconstructorBehavior(Random(3))})


def detected(stack) -> set[tuple[int, int]]:
    """(observer, culprit) pairs straight from the DMMs' ``D`` sets."""
    return {
        (pid, culprit)
        for pid, manager in stack.vss.items()
        for culprit in manager.dmm.D
    }


SHARING_ENTRY_POINTS = {
    "run_mwsvss": lambda: run_mwsvss(CONFIG, dealer=2, moderator=3, secret=7, adversary=liar()),
    "run_svss": lambda: run_svss(CONFIG, dealer=2, secret=7, adversary=liar()),
    "flip_common_coin": lambda: flip_common_coin(CONFIG, adversary=liar()),
}


@pytest.mark.parametrize("entry", SHARING_ENTRY_POINTS)
def test_sharing_and_coin_runs_report_their_shuns(entry):
    result, stack = SHARING_ENTRY_POINTS[entry]()
    assert detected(stack), "the fixture run is meant to shun"
    assert result.trace.shun_pairs() == detected(stack)
    assert result.trace.total_messages > 0


def test_example1_reports_its_shun(monkeypatch):
    """The paper's §3.3 stack, built the way ``run_example1`` builds it."""
    monitor = InvariantMonitor()
    real = scenarios.build_stack

    def monitored(*args, **kwargs):
        stack = real(*args, **kwargs)
        monitor.install(stack.runtime)
        return stack

    monkeypatch.setattr(scenarios, "build_stack", monitored)
    outcome = scenarios.run_example1()
    pairs = set(monitor.verdict()["shun_pairs"])
    assert pairs and all(culprit == scenarios.DEALER for _, culprit in pairs)
    assert outcome.stack.trace.shun_pairs() == pairs == detected(outcome.stack)
    assert outcome.stack.trace.total_messages > 0


#: A monitored campaign cell whose verdict lists shun pairs (process 1 is
#: drawn as a lying reconstructor).
SHUNNING_CELL = Scenario(n=4, seed=13, adversary="random", coin="svss", monitor=True)


def test_agreement_runs_report_the_monitors_shun_pairs():
    cell = SHUNNING_CELL
    config = SystemConfig(n=cell.n, seed=cell.seed)
    record = run_scenario(cell)
    assert record.shun_pairs > 0 and record.total_messages > 0

    monitor = InvariantMonitor()
    solo = run_byzantine_agreement(
        INPUT_PATTERNS[cell.inputs](config),
        config,
        adversary=ADVERSARIES[cell.adversary](config),
        scheduler=SCHEDULERS[cell.scheduler](config),
        monitor=monitor,
    )
    assert solo.shun_pairs == set(monitor.verdict()["shun_pairs"])
    assert len(solo.shun_pairs) == record.shun_pairs
    assert solo.trace.total_messages == record.total_messages

    monitor = InvariantMonitor()
    batch = run_byzantine_agreement_batch(
        [INPUT_PATTERNS[cell.inputs](config)] * 2,
        config,
        adversary=ADVERSARIES[cell.adversary](config),
        scheduler=SCHEDULERS[cell.scheduler](config),
        monitor=monitor,
    )
    pairs = set(monitor.verdict()["shun_pairs"])
    assert pairs and batch.trace.shun_pairs() == pairs
    assert all(r.shun_pairs == pairs for r in batch.results.values())
    assert batch.trace.total_messages > 0


# -- both runtimes count ---------------------------------------------------------


def test_a_socket_node_counts_like_the_simulator(tmp_path):
    """The same sends bump the same ``Trace`` on either runtime; events
    are the runtime's own counter (``summary()`` never mirrored it over
    sockets, so the key is gone rather than zero)."""

    def sends(host):
        host.send(1, ("x", 1), "alpha")
        host.send_all(("x", 2), "beta")

    sim = Runtime(CONFIG)
    sends(sim.host(1))
    assert sim.run_to_quiescence() == sim.events_dispatched > 0

    async def over_sockets():
        node = NetworkNode(CONFIG, 1, tmp_path / "node.journal")
        await node.start_server()
        try:
            sends(node.host)
            # Self-sends loop back through the inbox; peers that were
            # never started only queue.
            while not node._inbox.empty():
                await asyncio.sleep(0)
            return node.runtime
        finally:
            await node.close()

    net = asyncio.run(over_sockets())
    assert net.trace.messages_by_layer == sim.trace.messages_by_layer == {
        "alpha": 1, "beta": CONFIG.n,
    }
    assert net.events_dispatched == 2  # the two copies addressed to itself
    assert "events_dispatched" not in net.trace.summary()
    assert not hasattr(net.trace, "events_dispatched")
