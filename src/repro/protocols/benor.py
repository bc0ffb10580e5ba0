"""Ben-Or's 1983 randomized consensus — the original baseline (paper §1 [1]).

Requires ``n > 5t``.  Uses plain point-to-point sends (no reliable
broadcast) and private local coins, so expected convergence from split
inputs degrades exponentially with the number of processes — exactly the
behaviour experiment E2 contrasts with the paper's protocol.

Round ``r`` for a process with estimate ``est``:

* **report** — send ``(r, 1, est)`` to all; await ``n - t`` reports.  If
  more than ``(n + t) / 2`` carry the same ``w``, propose ``w``, else
  propose ⊥.
* **proposal** — send ``(r, 2, proposal)``; await ``n - t`` proposals.
  If ``>= 2t + 1`` carry the same non-⊥ ``w``: decide ``w``.  If
  ``>= t + 1``: adopt ``est := w``.  Otherwise flip the private coin.

Deciders keep participating for one extra round so laggards can finish.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

from repro.adversary.controller import Adversary
from repro.config import SystemConfig
from repro.core.api import (
    AgreementResult,
    _drive_agreements,
    build_stack,
    run_counters,
)
from repro.errors import ProtocolError
from repro.sim.module import ProtocolModule
from repro.sim.process import ProcessHost
from repro.sim.runtime import DEFAULT_MAX_EVENTS
from repro.sim.scheduler import Scheduler

LAYER = "benor"

#: The host tag every Ben-Or instance shares (instance-demuxed).
TAG = "benor"


class _Round:
    __slots__ = ("received", "snapshot", "sent")

    def __init__(self) -> None:
        self.received: dict[int, dict[int, object]] = {1: {}, 2: {}}
        self.snapshot: dict[int, list[object]] = {}
        self.sent: dict[int, bool] = {1: False, 2: False}


class BenOrProcess(ProtocolModule):
    """One process running one Ben-Or instance.

    Instance-scoped module: concurrent instances share the ``"benor"``
    host tag, demuxed by the instance id every message carries
    (``("benor", instance_id, r, phase, vote)``).
    """

    MODULE_KIND = "benor"

    def __init__(
        self,
        host: ProcessHost,
        instance_id: object = "benor",
        on_decide: Callable[[int], None] | None = None,
    ):
        super().__init__()
        self.on_decide = on_decide
        #: ``on_round(self, r)`` on entering round ``r``: the driver's hook.
        self.on_round: Callable[[BenOrProcess, int], None] | None = None
        self.est: int | None = None
        self.round = 0
        self.rounds: dict[int, _Round] = {}
        self.waiting_phase = 0
        self.decided: int | None = None
        self.decide_round: int | None = None
        self.halted = False
        self.attach(host, instance_id)

    def _wire(self, host: ProcessHost) -> None:
        self.pid = host.pid
        config = host.runtime.config
        config.require_resilience(5)
        self.n = config.n
        self.t = config.t
        self._rng = config.derive_rng("benor-coin", self.instance_id, host.pid)
        self.register_slot(TAG, self._on_message)

    # ------------------------------------------------------------------
    def start(self, input_value: int) -> None:
        if input_value not in (0, 1):
            raise ProtocolError(f"input must be 0 or 1, got {input_value!r}")
        if self.est is not None:
            raise ProtocolError("already started")
        self.est = input_value
        self._enter_round(1)

    @property
    def rounds_used(self) -> int:
        return self.round

    # ------------------------------------------------------------------
    def _round_state(self, r: int) -> _Round:
        state = self.rounds.get(r)
        if state is None:
            state = _Round()
            self.rounds[r] = state
        return state

    def _enter_round(self, r: int) -> None:
        self.round = r
        if self.on_round is not None:
            self.on_round(self, r)
        self.notify()
        self._send(r, 1, self.est)
        self.waiting_phase = 1
        self._maybe_advance()

    def _send(self, r: int, phase: int, vote: object) -> None:
        state = self._round_state(r)
        if state.sent[phase] or self.halted:
            return
        state.sent[phase] = True
        deviate = self.host.deviation("aba_vote")
        if deviate is not None:
            vote = deviate(r, phase, vote)
        self.host.send_all((TAG, self.instance_id, r, phase, vote), LAYER)

    def _on_message(self, src: int, payload: tuple) -> None:
        if len(payload) != 5:
            return
        _, _, r, phase, vote = payload
        if not isinstance(r, int) or r < 1 or phase not in (1, 2):
            return
        if phase == 1 and vote not in (0, 1):
            return
        if phase == 2 and vote not in (0, 1, None):
            return
        state = self._round_state(r)
        if src in state.received[phase]:
            return
        state.received[phase][src] = vote
        self._maybe_advance()

    # ------------------------------------------------------------------
    def _maybe_advance(self) -> None:
        if self.halted or self.round == 0:
            return
        state = self._round_state(self.round)
        while self.waiting_phase in (1, 2):
            phase = self.waiting_phase
            if phase in state.snapshot:
                break
            pool = state.received[phase]
            if len(pool) < self.n - self.t:
                break
            snapshot = list(pool.values())[: self.n - self.t]
            state.snapshot[phase] = snapshot
            if phase == 1:
                counts = [0, 0]
                for v in snapshot:
                    counts[v] += 1
                proposal: object = None
                for w in (0, 1):
                    if counts[w] * 2 > self.n + self.t:
                        proposal = w
                self._send(self.round, 2, proposal)
                self.waiting_phase = 2
            else:
                self._resolve_round(snapshot)
                break

    def _resolve_round(self, snapshot: list[object]) -> None:
        r = self.round
        counts = [0, 0]
        for v in snapshot:
            if v is not None:
                counts[v] += 1
        winner = 0 if counts[0] >= counts[1] else 1
        count = counts[winner]
        if count >= 2 * self.t + 1:
            self.est = winner
            self._decide(winner, r)
        elif count >= self.t + 1:
            self.est = winner
        else:
            self.est = self._rng.randrange(2)
        if self.decided is not None and r >= self.decide_round + 1:
            self.halted = True
            # Auto-prune the host-level dispatch slot on halt (mirrors
            # ABAProcess; late messages for this instance drop at the
            # demux instead of feeding a dead state machine).
            self.close()
            return
        self._enter_round(r + 1)

    def _decide(self, value: int, r: int) -> None:
        if self.decided is not None:
            return
        self.decided = value
        self.decide_round = r
        if self.on_decide is not None:
            self.on_decide(value)
        self.notify()


def run_benor(
    inputs: list[int] | dict[int, int],
    config: SystemConfig,
    adversary: Adversary | None = None,
    scheduler: Scheduler | None = None,
    max_rounds: int = 500,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> AgreementResult:
    """Run Ben-Or's protocol once (requires ``n > 5t``)."""
    config.require_resilience(5)
    stack = build_stack(
        config, scheduler=scheduler, adversary=adversary, with_vss=False
    )
    results = _drive_agreements(
        stack,
        {TAG: inputs},
        {TAG: dict.fromkeys(config.pids)},
        max_rounds,
        max_events,
        make=lambda host, broadcast, coin, iid, on_decide: BenOrProcess(
            host, instance_id=iid, on_decide=on_decide
        ),
    )
    return replace(results[TAG], **run_counters(stack.runtime))
