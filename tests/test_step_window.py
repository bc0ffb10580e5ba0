"""The step window keeps a fan-out whole and puts the reference's wire on
the queue.

``StepWindow`` holds a step's ``send_all`` payloads from one ``src`` as one
*fan* record while nothing else was buffered, and a fan-only step leaves by
one ``_emit_all`` (one ``push_fanout`` under a fixed delay).  Any other send
spills the fan into the per-pair outbox first.  ``tests/reference/
step_window.py`` is the rule it replaced: ``n`` per-pair buffers per
fan-out, flushed in first-touched pair order.  Random steps — a handler's
sends from one ``src``, a driver block's from one to three — run through
both under a fixed-delay scheduler (calendar queue) and a seeded uniform
one (heap), and must give the same events ``(time, seq, dst, src,
payload)``, envelope counters and per-layer trace counts.  The planted bug
(a spill in reverse destination order) must make that property fail.  The
socket runtime keeps its per-destination sink: the same property there is
the sequence of wire payloads and frames it hands on.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from reference.step_window import ReferenceWindow

from repro.config import SystemConfig
from repro.core.api import run_byzantine_agreement_batch
from repro.net import transport
from repro.net.codec import encode_value
from repro.sim.events import BucketQueue
from repro.sim.runtime import Runtime
from repro.sim.scheduler import FifoScheduler, UniformDelayScheduler
from repro.sim.window import StepWindow


def make_scheduler(kind: str, seed: int):
    return FifoScheduler() if kind == "fifo" else UniformDelayScheduler(Random(seed))


def send(window, ops) -> None:
    """Replay ``ops`` on a runtime or the reference (same send surface)."""
    for kind, *args in ops:
        if kind == "one":
            window.transmit(*args)
        else:
            window.transmit_all(*args)


@st.composite
def steps(draw):
    """``(n, handler_src or None, ops, scheduler kind, seed)``: a handler
    step sends from one ``src``, a driver step from one to three."""
    n = draw(st.sampled_from((1, 2, 4, 7)))
    pid = st.integers(1, n)
    handler = draw(st.booleans())
    if handler:
        srcs = [draw(pid)]
    else:
        srcs = draw(st.lists(pid, min_size=1, max_size=min(3, n), unique=True))
    ops = []
    for index in range(draw(st.integers(0, 10))):
        src = draw(st.sampled_from(srcs))
        layer = draw(st.sampled_from(("rb", "vss")))
        payload = ("m", index)
        if ops and draw(st.booleans()):
            payload = draw(st.sampled_from(ops))[-2]  # a repeated object
        if draw(st.integers(0, 2)):
            ops.append(("all", src, payload, layer))
        else:
            ops.append(("one", src, draw(pid), payload, layer))
    kind = draw(st.sampled_from(("fifo", "uniform")))
    return n, srcs[0] if handler else None, ops, kind, draw(st.integers(0, 1 << 16))


def product_step(n, handler_src, ops, kind, seed):
    runtime = Runtime(SystemConfig(n=n, seed=0), scheduler=make_scheduler(kind, seed))
    if handler_src is None:
        with runtime.coalescing_step():
            send(runtime, ops)
    else:
        fired = []

        def handler(src, payload):
            send(runtime, ops)
            fired.append(src)

        runtime.hosts[handler_src].register_handler("go", handler)
        runtime.queue.push(1.0, handler_src, handler_src, ("go",))
        runtime.run_until(lambda: bool(fired))  # stops right after the step
    events = []
    while runtime.queue:
        events.append(runtime.queue.pop())
    counters = (runtime.envelopes_pushed, runtime.payloads_coalesced)
    return events, counters, dict(runtime.trace.messages_by_layer)


def reference_step(n, handler_src, ops, kind, seed):
    window = ReferenceWindow(n)
    send(window, ops)
    scheduler = make_scheduler(kind, seed)
    fixed = scheduler.fixed_delay()
    # A handler step runs at the go event's time, after its seq.
    now, seq = (0.0, 0) if handler_src is None else (1.0, 1)
    events = []
    for src, dst, wire in window.flush():
        delay = fixed if fixed is not None else scheduler.delay(src, dst, wire, now)
        events.append((now + delay, seq, dst, src, wire))
        seq += 1
    events.sort(key=lambda event: event[:2])
    counters = (window.envelopes_pushed, window.payloads_coalesced)
    return events, counters, window.sends


def check(case) -> None:
    product, counters, sends = product_step(*case)
    expected, expected_counters, expected_sends = reference_step(*case)
    assert [event[:4] for event in product] == [event[:4] for event in expected]
    assert [event[4] for event in product] == [event[4] for event in expected]
    assert counters == expected_counters
    assert sends == expected_sends


@settings(max_examples=400, deadline=None)
@given(steps())
def test_window_puts_the_reference_events_on_the_queue(case):
    check(case)


def test_the_property_reaches_fans_spills_and_envelopes(monkeypatch):
    """The strategy is not vacuous: fan-only steps, spilled fans and
    multi-payload envelopes all occur."""
    seen = set()
    real = StepWindow._buffer

    def watching(self, src, dst, payload):
        if self._fan:
            seen.add("spill")
        real(self, src, dst, payload)

    monkeypatch.setattr(StepWindow, "_buffer", watching)

    @settings(max_examples=300, deadline=None, database=None)
    @given(steps())
    def probe(case):
        _, counters, _ = product_step(*case)
        ops = case[2]
        if ops and all(op[0] == "all" for op in ops) and len({op[1] for op in ops}) == 1:
            seen.add("fan-only")
        if counters[0]:
            seen.add("envelope")

    probe()
    assert seen == {"fan-only", "spill", "envelope"}


def spill_reversed(self, src, dst, payload):
    """The planted bug: the fan spills into pairs ``(src, n) … (src, 1)``."""
    fan = self._fan
    if fan:
        for pid in range(self.config.n, 0, -1):
            self._outbox[(self._fan_src, pid)] = fan[:]
        fan.clear()
    self._outbox.setdefault((src, dst), []).append(payload)


def test_the_property_fails_on_a_reversed_spill(monkeypatch):
    monkeypatch.setattr(StepWindow, "_buffer", spill_reversed)

    # No shrinking: the first failing example is the finding.
    @settings(max_examples=400, deadline=None, database=None, phases=[Phase.generate])
    @given(steps())
    def planted(case):
        check(case)

    with pytest.raises(AssertionError):
        planted()


def test_a_fan_only_step_is_one_push_fanout(monkeypatch):
    calls = []
    real = BucketQueue.push_fanout

    def counting(self, time, src, payload, n):
        calls.append((time, src, payload, n))
        return real(self, time, src, payload, n)

    monkeypatch.setattr(BucketQueue, "push_fanout", counting)
    monkeypatch.setattr(BucketQueue, "push", None)  # any per-event push fails
    runtime = Runtime(SystemConfig(n=4, seed=0), scheduler=FifoScheduler())
    with runtime.coalescing_step():
        runtime.transmit_all(2, ("b2", 1), "rb")
        runtime.transmit_all(2, ("b3", 1), "rb")
    assert calls == [(1.0, 2, ("env", (("b2", 1), ("b3", 1))), 4)]
    assert (runtime.envelopes_pushed, runtime.payloads_coalesced) == (4, 8)


def test_a_fixed_delay_batch_run_reaches_push_fanout(monkeypatch):
    """Every RB echo step of a default batch run is one fan-out: the
    calendar queue's batch push is the path, not an unreachable branch."""
    calls = []
    real = BucketQueue.push_fanout

    def counting(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(BucketQueue, "push_fanout", counting)
    rows = [[(i + k) % 2 for i in range(4)] for k in range(3)]
    result = run_byzantine_agreement_batch(
        rows, SystemConfig(n=4, seed=1), coin=("ideal", 1.0), scheduler=FifoScheduler()
    )
    assert result.agreed
    # 432 of the 448 events at this seed; the rest are driver-step sends.
    assert sum(args[3] for args in calls) * 10 >= result.messages_pushed * 9


# -- the socket runtime: same wire, its own per-destination sink ------------

FANS_ONLY = [("all", 1, ("b2", 1), "rb"), ("all", 1, ("b3", 1), "rb")]
LONE_FAN = [("all", 1, ("b1", 0), "rb")]
MIXED = [
    ("all", 1, ("b2", 1), "rb"),
    ("one", 1, 3, ("v", 3), "vss"),
    ("all", 1, ("b3", 1), "rb"),
    ("one", 1, 1, ("v", 1), "vss"),
]


@pytest.mark.parametrize("ops", [FANS_ONLY, LONE_FAN, MIXED], ids=["fans", "lone", "mixed"])
def test_socket_step_hands_on_the_reference_wire(ops, tmp_path):
    node = transport.NetworkNode(SystemConfig(n=4, seed=0), 1, tmp_path / "node.journal")
    runtime = node.runtime
    emitted = []

    def emit(src, dst, payload):
        emitted.append((dst, payload))
        type(runtime)._emit(runtime, src, dst, payload)

    runtime._emit = emit
    frames = []
    node.dispatch_out = lambda dst, payload, enc=None: frames.append((dst, payload, enc))
    with runtime.coalescing_step():
        send(runtime, ops)
    reference = ReferenceWindow(4)
    send(reference, ops)
    expected = [(dst, wire) for _, dst, wire in reference.flush()]
    assert emitted == expected
    assert [(dst, payload) for dst, payload, _ in frames] == expected
    for dst, payload, enc in frames:
        if dst == node.pid:
            assert enc is None  # the self-send loops back unencoded
        else:
            assert enc == encode_value(payload)
    assert (runtime.envelopes_pushed, runtime.payloads_coalesced) == (
        reference.envelopes_pushed,
        reference.payloads_coalesced,
    )
    assert dict(runtime.trace.messages_by_layer) == reference.sends
    assert runtime._encoded == {} and runtime._fan == []
