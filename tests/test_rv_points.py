"""R' point selection on sender masks equals the dict-of-lists reference.

``MWSVSSInstance`` gathers ``K_l`` as a sender mask and reads ``f̄_l(0)``
off ``rv_batches`` in ascending pid order; ``tests/reference/rv_points.py``
is the list-of-points computation it replaced.  A real instance and the
reference receive the same ``L̂``, ``M̂``, ``rv`` and begin events in random
orders — batches before, between and after the sets, lying senders, batches
that omit monitors or name ineligible ones — and must agree after every
event on the senders chosen per monitor, on ``f̄`` and on the output, ⊥
included.  The planted bug (the t + 1 lowest pids instead of the first
t + 1 to arrive) must make that property fail.
"""

from __future__ import annotations

from functools import cache
from itertools import count

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from reference.rv_points import RvPoints
from reference.svss_output import horner

from repro import SystemConfig
from repro.config import max_faults
from repro.core.api import build_stack
from repro.core.mwsvss import BOTTOM, MWSVSSInstance, rv_value
from repro.core.sessions import mw_session

DEALER, MODERATOR = 2, 3  # the instance is process 1's: neither of them
_sessions = count()


@cache
def manager(n: int, prime: int):
    return build_stack(SystemConfig(n=n, prime=prime)).vss[1]


@st.composite
def rv_arrivals(draw):
    """``(n, prime, events)``: one session's ``L̂`` / ``M̂`` broadcasts,
    ``rv`` batches and the local begin, in an arbitrary delivery order.
    Honest senders send ``f_l(k)``; liars send some values off it."""
    n = draw(st.sampled_from((4, 7)))
    prime = draw(st.sampled_from((13, 2**31 - 1)))
    t = max_faults(n)
    pids = range(1, n + 1)
    element = st.integers(0, prime - 1)

    def pid_set():
        return tuple(draw(st.permutations(pids))[: draw(st.integers(n - t, n))])

    f = draw(st.lists(element, min_size=t + 1, max_size=t + 1))
    subs = {
        l: [horner(prime, f, l), *draw(st.lists(element, min_size=t, max_size=t))]
        for l in pids
    }
    m_hat = pid_set()
    l_hat = {l: pid_set() for l in pids if draw(st.integers(0, 5))}
    liars = draw(st.sets(st.sampled_from(pids), max_size=t + 1))
    events = [("M", MODERATOR, m_hat), ("begin", None, None)]
    events += [("L", l, members) for l, members in l_hat.items()]
    for k in pids:
        if not draw(st.integers(0, 5)):
            continue  # silent
        items = []
        for l in pids:
            eligible = l in m_hat and k in l_hat.get(l, ())
            if draw(st.integers(0, 4)) if eligible else not draw(st.integers(0, 4)):
                value = horner(prime, subs[l], k)
                if k in liars and draw(st.booleans()):
                    value = (value + draw(st.integers(1, prime - 1))) % prime
                items.append((l, value))
        events.append(("rv", k, tuple(draw(st.permutations(items)))))
    return n, prime, draw(st.permutations(events))


def chosen(inst: MWSVSSInstance, ref: RvPoints, n: int):
    """Per monitor: (senders in K_l, f̄_l) of the instance and the reference."""
    product = [
        ({k for k in range(1, n + 1) if inst.K[l] >> k & 1}, inst.f_bar[l])
        if inst.K is not None
        else (set(), None)
        for l in range(1, n + 1)
    ]
    reference = [
        ({k for k, _ in ref.K.get(l, ())}, ref.f_bar.get(l)) for l in range(1, n + 1)
    ]
    return product, reference


def fresh_instance(n: int, prime: int) -> MWSVSSInstance:
    sid = mw_session(("rv-points", next(_sessions)), DEALER, MODERATOR, "dm")
    inst = manager(n, prime)._ensure_mw(sid)  # tabled: its output retires it
    inst.share_completed = True  # begin_reconstruct's precondition; no share runs
    return inst


def deliver(inst: MWSVSSInstance, kind: str, src: int, body: object) -> None:
    if kind == "begin":
        inst.begin_reconstruct()
    elif kind == "rv":  # parsed once, as the manager hands every batch over
        inst.handle(src, kind, body, inst.manager.parse_rv(body))
    else:
        inst.handle(src, kind, body)


def replay(n: int, prime: int, events: list) -> None:
    inst = fresh_instance(n, prime)
    ref = RvPoints(prime, inst.manager.t, BOTTOM)
    feed = {
        "begin": lambda src, body: ref.begin(),
        "L": ref.on_l_set,
        "M": lambda src, body: ref.on_m_set(body),
        "rv": ref.on_rv,
    }
    for kind, src, body in events:
        deliver(inst, kind, src, body)
        feed[kind](src, body)
        assert inst.output == ref.output  # None, an int or the one ⊥
        if not inst.released:
            product, reference = chosen(inst, ref, n)
            assert product == reference
            assert list(inst.rv_batches or ()) == list(ref.rv_batches)


@settings(max_examples=400, deadline=None)
@given(rv_arrivals())
def test_sender_masks_choose_the_points_of_the_reference(case):
    replay(*case)


def test_the_property_reaches_outputs_and_bottom():
    """The strategy is not vacuous: honest runs output, lying ones hit ⊥."""
    outcomes = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(rv_arrivals())
    def probe(case):
        n, prime, events = case
        inst = fresh_instance(n, prime)
        for event in events:
            deliver(inst, *event)
        output = inst.output
        outcomes.add("none" if output is None else output if output is BOTTOM else "value")

    probe()
    assert outcomes == {"none", BOTTOM, "value"}


def lowest_pids_first(self: MWSVSSInstance) -> None:
    """The planted bug: ``K_l`` takes the t + 1 lowest eligible pids among
    the batches so far instead of the first t + 1 to arrive."""
    if self.M_hat is None:
        return
    self._rv_dirty = 0
    for l in self.M_hat:
        if self.f_bar[l] is not None:
            continue
        eligible = [
            k
            for k in sorted(self.rv_batches)
            if rv_value(self.rv_batches[k], l) is not None and self.L_hat[l] >> k & 1
        ]
        self.K[l] = mask = sum(1 << k for k in eligible[: self.manager.t + 1])
        if len(eligible) > self.manager.t:
            self._interpolate_f_bar(l, mask)


def test_the_property_fails_on_lowest_pids_first(monkeypatch):
    """The planted bug is caught where it chose: the failing case is one in
    which it filled a ``K_l`` and interpolated ``f̄_l``."""
    interpolated = []
    interpolate = MWSVSSInstance._interpolate_f_bar

    def counted(self, l, mask):
        interpolated.append(l)
        interpolate(self, l, mask)

    monkeypatch.setattr(MWSVSSInstance, "_consume_rv_batches", lowest_pids_first)
    monkeypatch.setattr(MWSVSSInstance, "_interpolate_f_bar", counted)

    # No shrinking: the first failing example is the finding.
    @settings(max_examples=400, deadline=None, database=None, phases=[Phase.generate])
    @given(rv_arrivals())
    def planted(case):
        interpolated.clear()
        replay(*case)

    with pytest.raises(AssertionError):
        planted()
    assert interpolated  # hypothesis ends on the failing case
