"""``VSSManager.pid_set`` / ``pids_of``: the bitmask form of a broadcast pid
tuple against ``frozenset`` semantics, on bodies an adversary can send."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.api import build_stack
from repro.core.manager import PID_MEMO_MAX

#: n = 70 puts masks past a machine word.
SIZES = (4, 70)
_MANAGERS = {}


def manager(n: int):
    """One long-lived manager per n: the memo outlives every example, so an
    answer that depended on what was asked before would show."""
    if n not in _MANAGERS:
        _MANAGERS[n] = build_stack(SystemConfig(n=n, seed=0)).vss[1]
    return _MANAGERS[n]


def reference(body: object, n: int) -> frozenset | None:
    if not isinstance(body, tuple):
        return None
    if not all(isinstance(p, int) and 1 <= p <= n for p in body):
        return None
    return frozenset(body) if len(set(body)) == len(body) else None


def members(mask: int) -> set[int]:
    return {p for p in range(mask.bit_length()) if mask >> p & 1}


def bodies(n: int):
    hostile = st.sampled_from(
        [0, -1, n + 1, 2 * n, True, False, 1.0, 2.0, float(n), "1", None, (1,), b"\x01"]
    )
    element = st.one_of(st.integers(1, n), st.integers(1, min(n, 4)), hostile)
    as_tuple = st.lists(element, max_size=n + 2).map(tuple)
    return st.one_of(as_tuple, st.lists(st.integers(1, n), max_size=3), st.none())


@pytest.mark.parametrize("n", SIZES)
def test_mask_and_frozenset_agree_on_adversarial_bodies(n):
    mgr = manager(n)

    @settings(max_examples=400, deadline=None)
    @given(bodies(n))
    def check(body):
        expected = reference(body, n)
        got = mgr.pid_set(body)
        if expected is None:
            assert got is None
            return
        fs, mask = got
        assert fs == expected and type(fs) is frozenset
        assert members(mask) == expected and mask.bit_count() == len(expected)
        assert mgr.pids_of(mask) == tuple(sorted(expected))
        assert all(type(p) is int for p in mgr.pids_of(mask))

    check()


@pytest.mark.parametrize("n", SIZES)
def test_mask_operators_are_the_set_operators(n):
    mgr = manager(n)
    pid_sets = st.sets(st.integers(1, n)).map(lambda s: tuple(sorted(s)))

    @settings(max_examples=300, deadline=None)
    @given(pid_sets, pid_sets, st.integers(1, n))
    def check(a, b, p):
        (fa, ma), (fb, mb) = mgr.pid_set(a), mgr.pid_set(b)
        assert (ma & ~mb == 0) == (fa <= fb)  # l_hat <= acks
        assert bool(ma >> p & 1) == (p in fa)  # p in l_hat
        assert members(ma | 1 << p) == fa | {p}  # acks.add(p)
        assert (ma | mb).bit_count() == len(fa | fb)

    check()


def test_an_equal_float_tuple_neither_poisons_nor_borrows_the_memo():
    """``(1.0, 2, 3)`` equals and hashes like ``(1, 2, 3)``; whichever is
    asked first, each keeps its own answer."""
    for first, second in (((1.0, 2, 3), (1, 2, 3)), ((1, 2, 3), (1.0, 2, 3))):
        mgr = build_stack(SystemConfig(n=4, seed=0)).vss[1]
        for body in (first, second, first):
            got = mgr.pid_set(body)
            assert (got is None) == (reference(body, 4) is None), body
    assert manager(4).pid_set((True, 2, 3)) == (frozenset({1, 2, 3}), 0b1110)


def test_the_memos_are_bounded_and_a_miss_still_answers():
    mgr = build_stack(SystemConfig(n=70, seed=0)).vss[1]
    for a in range(1, 71):
        for b in range(1, 71):
            got = mgr.pid_set((a, b))
            assert (got is None) == (a == b)
            if got is not None:
                assert mgr.pids_of(got[1]) == tuple(sorted((a, b)))
    assert len(mgr._pid_sets) == PID_MEMO_MAX
    assert len(mgr._mask_pids) <= PID_MEMO_MAX
