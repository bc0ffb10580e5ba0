"""The registration contract: every router reads the host's live handler table.

Handlers, instance slots and whole substrate modules may be registered and
closed while events flow, on the simulator (hot loop on the calendar queue,
hot loop on the heap, ``step()``) and on a socket node (the inbox pump) —
one test body per property, one leg per router.  And whatever a byzantine
peer puts on the wire, routing never raises and only a registered tag
reaches a handler.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.manager import BroadcastManager
from repro.config import SystemConfig
from repro.net.transport import NetworkNode
from repro.sim.runtime import Runtime
from repro.sim.scheduler import FifoScheduler

CONFIG = SystemConfig(n=4, seed=0)


class _SimLeg:
    """Process 1 of a simulated system; ``inject`` is a self-send."""

    def __init__(self, scheduler, by_step):
        self.runtime = Runtime(CONFIG, scheduler=scheduler)
        self.host = self.runtime.host(1)
        self.by_step = by_step

    def inject(self, payload):
        self.host.send(1, payload, "test")

    def settle(self):
        if self.by_step:
            while self.runtime.step():
                pass
        else:
            self.runtime.run_to_quiescence()

    def close(self):
        pass


class _NetLeg:
    """A started socket node; ``inject`` loops back through its inbox, so
    every delivery is one turn of ``NetworkNode._pump``."""

    def __init__(self, journal_dir):
        self.loop = asyncio.new_event_loop()
        self.node = NetworkNode(CONFIG, 1, journal_dir / "node.journal")
        self.loop.run_until_complete(self.node.start_server())
        self.runtime = self.node.runtime
        self.host = self.node.host

    def inject(self, payload):
        self.node.dispatch_out(1, payload)

    def settle(self):
        async def drained():
            # The pump empties the inbox without yielding, replies to self
            # included; peers that were never started only queue.
            while not self.node._inbox.empty():
                await asyncio.sleep(0)

        self.loop.run_until_complete(asyncio.wait_for(drained(), timeout=10))

    def close(self):
        self.loop.run_until_complete(self.node.close())
        self.loop.close()


LEGS = {
    "calendar": lambda tmp: _SimLeg(FifoScheduler(), by_step=False),
    "heap": lambda tmp: _SimLeg(None, by_step=False),
    "step": lambda tmp: _SimLeg(FifoScheduler(), by_step=True),
    "net": _NetLeg,
}


@pytest.fixture(params=sorted(LEGS))
def leg(request, tmp_path):
    leg = LEGS[request.param](tmp_path)
    yield leg
    leg.close()


def _running(leg):
    """Dispatch something first, so every registration below is mid-run."""
    warm = []
    leg.host.register_handler("warm", lambda src, payload: warm.append(payload))
    leg.inject(("warm", 0))
    leg.settle()
    assert warm == [("warm", 0)]
    assert leg.runtime.events_dispatched > 0


def test_plain_handler_registered_mid_run_receives(leg):
    _running(leg)
    got = []
    leg.host.register_handler("late", lambda src, payload: got.append((src, payload)))
    leg.inject(("late", 1))
    leg.settle()
    assert got == [(1, ("late", 1))]
    leg.host.unregister_handler("late")
    leg.inject(("late", 2))
    leg.settle()
    assert got == [(1, ("late", 1))]


def test_first_instance_slot_on_a_new_tag_mid_run(leg):
    _running(leg)
    got = []
    leg.host.register_instance_handler("slot", "a", lambda src, payload: got.append(payload))
    leg.inject(("slot", "a", 1))
    leg.inject(("slot", "b", 2))  # unknown instance: dropped
    leg.settle()
    assert got == [("slot", "a", 1)]
    assert set(leg.host.instance_slots("slot")) == {"a"}


def test_substrate_module_replaced_mid_run(leg):
    first = BroadcastManager(leg.host)
    leg.inject(("b1", (1, "demo", 0), ("demo", "x")))
    leg.settle()
    assert (1, "demo", 0) in first._instances
    assert leg.runtime.events_dispatched > 0
    first.close()
    for tag in ("b1", "b2", "b3"):
        assert tag not in leg.host._handlers
    replacement = BroadcastManager(leg.host)
    assert replacement.attached and first.closed
    leg.inject(("b1", (1, "demo", 1), ("demo", "y")))
    leg.settle()
    assert set(first._instances) == {(1, "demo", 0)}
    assert set(replacement._instances) == {(1, "demo", 1)}


def test_bare_event_and_envelope_share_one_table(leg):
    _running(leg)
    old, new = [], []
    leg.host.register_handler("t", lambda src, payload: old.append(payload))
    leg.inject(("t", 0))
    leg.inject(("env", (("t", 1),)))
    leg.settle()
    assert old == [("t", 0), ("t", 1)]
    leg.host.unregister_handler("t")
    leg.host.register_handler("t", lambda src, payload: new.append(payload))
    leg.inject(("t", 2))
    leg.inject(("env", (("t", 3), ("t", 4))))
    leg.settle()
    assert old == [("t", 0), ("t", 1)]
    assert sorted(new) == [("t", 2), ("t", 3), ("t", 4)]


# ---------------------------------------------------------------------------
# Routing never raises, whatever is on the wire.
# ---------------------------------------------------------------------------

_leaves = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.sampled_from(["ping", "pong", "env", "recover", ""]),
    st.binary(max_size=3),
)


def _nest(children):
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.sampled_from(["a", "b"]), children, max_size=2),
    )


_payloads = _leaves
for _ in range(3):  # tuples / lists / dicts nested to depth 3
    _payloads = st.one_of(_leaves, _nest(_payloads))


def _registered_tag(payload):
    return isinstance(payload, tuple) and payload and payload[0] in ("ping", "pong")


def _flatten(payload):
    """The bare messages ``payload`` stands for: itself, or — one level,
    no nesting — the sub-payloads of a well-formed envelope."""
    if (
        isinstance(payload, tuple)
        and len(payload) == 2
        and payload[0] == "env"
        and type(payload[1]) is tuple
    ):
        return [sub for sub in payload[1] if not (isinstance(sub, tuple) and sub[:1] == ("env",))]
    return [payload]


@settings(max_examples=150, deadline=None)
@given(payloads=st.lists(_payloads, max_size=6), heap=st.booleans())
def test_routing_never_raises_and_only_registered_tags_reach_handlers(payloads, heap):
    expected = [m for payload in payloads for m in _flatten(payload) if _registered_tag(m)]

    def fresh():
        rt = Runtime(
            SystemConfig(n=2, t=1, seed=0),
            scheduler=None if heap else FifoScheduler(),
        )
        got = []
        for tag in ("ping", "pong"):
            rt.host(2).register_handler(tag, lambda src, payload: got.append(payload))
        return rt, got

    rt, got = fresh()
    for payload in payloads:
        rt.host(2).deliver(1, payload)
    assert got == expected

    for by_step in (False, True):
        rt, got = fresh()
        rt.host(1).outbound_filter = lambda dst, payload: payloads
        rt.host(1).send(2, ("x",), "test")
        if by_step:
            while rt.step():
                pass
        else:
            rt.run_to_quiescence()
        assert sorted(map(repr, got)) == sorted(map(repr, expected))
