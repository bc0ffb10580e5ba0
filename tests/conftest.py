"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from reference.aba_fixpoint import armed

from repro.config import SystemConfig
from repro.core.agreement import ABAProcess
from repro.core.mwsvss import MWSVSSInstance
from repro.field.gf import Field


@pytest.fixture
def small_field() -> Field:
    """GF(13): small enough to hand-check values."""
    return Field(13)


@pytest.fixture
def field() -> Field:
    """GF(2^31 - 1): large enough that random values rarely collide."""
    return Field(2**31 - 1)


@pytest.fixture
def cfg4() -> SystemConfig:
    """The minimal optimally-resilient system: n=4, t=1."""
    return SystemConfig(n=4, seed=1234)


@pytest.fixture
def cfg7() -> SystemConfig:
    """n=7, t=2 — the smallest system with two-fault corruption room."""
    return SystemConfig(n=7, seed=1234)


@pytest.fixture(autouse=True)
def aba_fixpoint_armed(monkeypatch):
    """Every agreement run of the suite is cross-checked: after each
    ``ABAProcess._ingest_vote`` the accepted votes must equal the
    from-scratch fixpoint of ``tests/reference/aba_fixpoint.py``."""
    monkeypatch.setattr(ABAProcess, "_ingest_vote", armed(ABAProcess._ingest_vote))


@pytest.fixture
def spy_handle(monkeypatch):
    """``spy_handle(inst, fn)`` routes ``inst.handle(*a)`` to ``fn(*a)``.

    The instances are slotted, so the method is replaced on the class and
    dispatches by instance; every other instance keeps the real method.
    """
    real = MWSVSSInstance.handle
    spies = {}

    def handle(self, *args):
        spy = spies.get(id(self))
        return real(self, *args) if spy is None else spy(*args)

    monkeypatch.setattr(MWSVSSInstance, "handle", handle)
    return lambda inst, fn: spies.__setitem__(id(inst), fn)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: full-stack runs that take more than a couple of seconds"
    )
