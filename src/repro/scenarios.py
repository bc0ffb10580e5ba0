"""Packaged paper scenarios.

Currently one: the paper's Example 1 (§3.3), which demonstrates that two
nonfaulty processes *can* complete an MW-SVSS invocation with different
non-⊥ values — weak binding genuinely breaks — and that the crafted lie
necessarily lands the faulty dealer in a nonfaulty ``D`` set (the shunning
that pays for the break).

Setup (n = 4, t = 1): process 2 is a faulty dealer, process 1 moderates,
process 4 is delayed.  ``L_1 = L_2 = L_3 = M = {1, 2, 3}``.  During
reconstruct, dealer 2 broadcasts values on a *different* degree-1
polynomial crafted to agree with process 3's own shares; the schedule lets
3 interpolate from {2, 3} (yielding the fake secret) while 1 interpolates
from {1, 3} (yielding the real one).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adversary.behaviors import ByzantineBehavior
from repro.adversary.controller import Adversary
from repro.broadcast.manager import rb_message
from repro.config import SystemConfig
from repro.core.api import Stack, build_stack
from repro.core.manager import CallbackWatcher
from repro.core.mwsvss import point
from repro.core.sessions import mw_session
from repro.sim.scheduler import Scheduler

DEALER = 2
MODERATOR = 1
VICTIM = 4
TRUE_SECRET = 42
FAKE_SECRET = 77


class CraftingDealer(ByzantineBehavior):
    """Deals honestly, then lies *consistently* during reconstruct.

    The crafted reconstruct values lie on polynomials ``f'_l`` with
    ``f'_l(3) = f_l(3)`` (so they interpolate cleanly with process 3's own
    broadcast) and ``f'_l(0) = f'(l)`` for a fake polynomial ``f'`` with
    ``f'(0) = FAKE_SECRET``.
    """

    def __init__(self):
        self.vss_manager = None  # wired after the stack is built

    def corrupt_mw_reconstruct_values(self, session, values, prime):
        inst = self.vss_manager.mw[session]
        field = self.vss_manager.field
        cols = inst._deal_rows  # cols[x][l - 1] == f_l(x), x in 1..n
        f_at_3 = point(field, 1, (cols[1][2], cols[2][2]), 0)  # f(3) = f_3(0), t = 1

        def line(at_zero: int, at_3: int, x: int) -> int:
            """The degree-1 polynomial through (0, at_zero) and (3, at_3), at x."""
            slope = field.div(field.sub(at_3, at_zero), 3)
            return field.add(at_zero, field.mul(slope, x))

        crafted = {}
        for monitor in values:
            f_fake = line(FAKE_SECRET, f_at_3, monitor)  # f'(monitor)
            crafted[monitor] = line(f_fake, cols[3][monitor - 1], DEALER)
        return crafted

    def describe(self) -> str:
        return "CraftingDealer(example1)"


class Example1Scheduler(Scheduler):
    """The example's schedule: process 4 slow; reconstruct-value broadcasts
    ordered so 3 hears {2, 3} first and 1 hears {1, 3} first.  It orders
    single messages by what they carry, so it splits both packings."""

    splits_envelopes = True
    splits_slots = True

    def _rv_origin(self, payload) -> int | None:
        bid, _ = rb_message(payload) or (None, None)
        if isinstance(bid, tuple) and len(bid) == 4 and bid[3] == "rv":
            return bid[0]
        return None

    def delay(self, src, dst, payload, now):
        if src == VICTIM or dst == VICTIM:
            return 10_000.0
        origin = self._rv_origin(payload)
        if origin is not None:
            if origin == MODERATOR and dst == 3:
                return 500.0
            if origin == DEALER and dst == MODERATOR:
                return 500.0
        return 1.0


@dataclass
class Example1Outcome:
    """What happened in one Example-1 run."""

    stack: Stack
    session: tuple
    share_completed: set[int]
    outputs: dict[int, object]
    #: pid -> the ``M̂`` it completed its share with
    m_hat: dict[int, frozenset[int]]

    @property
    def disagreement(self) -> bool:
        """Did two nonfaulty processes output different values?"""
        return self.outputs.get(3) != self.outputs.get(MODERATOR)

    @property
    def dealer_shunned(self) -> bool:
        return any(
            culprit == DEALER and observer != DEALER
            for observer, culprit in self.stack.trace.shun_pairs()
        )


def run_example1(seed: int = 0) -> Example1Outcome:
    """Execute the paper's Example 1 and return the outcome."""
    cfg = SystemConfig(n=4, seed=seed)
    behavior = CraftingDealer()
    adversary = Adversary({DEALER: behavior})
    stack = build_stack(cfg, scheduler=Example1Scheduler(), adversary=adversary)
    behavior.vss_manager = stack.vss[DEALER]
    sid = mw_session(("example1", 0), DEALER, MODERATOR, "dm")
    m_hat: dict[int, frozenset[int]] = {}
    outputs: dict[int, object] = {}
    for pid in cfg.pids:
        stack.vss[pid].register_watcher(
            ("example1", 0),
            CallbackWatcher(
                on_mw_share_complete=lambda s, pid=pid: m_hat.setdefault(
                    pid, stack.vss[pid].mw[s].M_hat
                ),
                on_mw_output=lambda s, v, pid=pid: outputs.setdefault(pid, v),
            ),
        )
    stack.vss[DEALER].mw_share(sid, TRUE_SECRET)
    stack.vss[MODERATOR].mw_moderate(sid, TRUE_SECRET)
    stack.runtime.run_until(lambda: {1, 2, 3} <= m_hat.keys(), max_events=2_000_000)
    for pid in cfg.pids:
        try:
            stack.vss[pid].mw_begin_reconstruct(sid)
        except Exception:
            continue  # the delayed process is still mid-share
    stack.runtime.run_to_quiescence(max_events=2_000_000)
    return Example1Outcome(
        stack=stack,
        session=sid,
        share_completed=set(m_hat),
        outputs=outputs,
        m_hat=m_hat,
    )
