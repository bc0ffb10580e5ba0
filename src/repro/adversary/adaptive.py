"""Adaptive corruption: choose the ≤t victims *online*, from observed traffic.

The paper's adversary is adaptive — it may corrupt any process at any
point of the execution, up to ``t`` in total, with full knowledge of the
traffic so far.  The static :class:`~repro.adversary.controller.Adversary`
fixes its victims before the run; :class:`AdaptiveAdversary` instead
installs a delivery tap on the runtime (see
:attr:`~repro.sim.runtime.Runtime.delivery_tap`), counts the traffic every
process *sources*, and after a warmup number of delivered events corrupts
the processes its policy ranks highest:

* ``"most-active"`` — the busiest senders (in an agreement run these are
  the processes driving broadcast echo waves; knocking them out is the
  classic targeted-crash strike);
* ``"least-active"`` — the quietest senders (starves the waits that were
  already closest to missing their quorums);
* ``"dealer-heavy"`` — the heaviest *dealers*, counting only VSS session
  traffic (``"v"`` private sends and ``"svec"`` vectors, unpacking
  envelopes): the most-connected dealer-group of the coin.

Corruption happens mid-run, after routing froze.  That is sound by
construction: inbound routing tables of corrupt hosts are only an
optimization detail (behaviours act through outbound filters and
deviation hooks, both consulted live), crash state is re-checked per
event by ``step()`` and the hot loop alike, and the runners keep their
nonfaulty-set bookkeeping dynamic for adversaries with ``adaptive = True``.

Determinism: the tap observes the deterministic delivery stream and all
randomness comes from one seeded stream, so the chosen victims — and the
whole run — replay bit-for-bit from the config seed, like everything else
in the simulator.
"""

from __future__ import annotations

from random import Random

from repro.adversary.controller import BEHAVIOR_KINDS, Adversary
from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.sim.process import envelope_subs
from repro.sim.runtime import Runtime

#: Victim-ranking policies accepted by :class:`AdaptiveAdversary`.
POLICIES = ("most-active", "least-active", "dealer-heavy")


class AdaptiveAdversary(Adversary):
    """Observe delivered traffic, then corrupt the policy's top ≤t victims.

    ``warmup`` is the number of delivered events to observe before
    striking (default ``25 * n`` — early enough to land mid-protocol,
    late enough to rank on real traffic); ``budget`` caps the victims
    (default, and always at most, ``t``); ``kind`` names the
    :data:`~repro.adversary.controller.BEHAVIOR_KINDS` behaviour every
    victim receives.
    """

    adaptive = True

    def __init__(
        self,
        config: SystemConfig,
        rng: Random | int,
        budget: int | None = None,
        warmup: int | None = None,
        policy: str = "most-active",
        kind: str = "crash",
    ):
        super().__init__({})
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown adaptive policy {policy!r}; expected one of {POLICIES}"
            )
        if kind not in BEHAVIOR_KINDS:
            raise ConfigurationError(
                f"unknown behaviour kind {kind!r}; "
                f"expected one of {sorted(BEHAVIOR_KINDS)}"
            )
        self.config = config
        self.seed = rng if isinstance(rng, int) else rng.getrandbits(64)
        self._rng = Random(self.seed)
        self.budget = min(budget if budget is not None else config.t, config.t)
        self.warmup = warmup if warmup is not None else 25 * config.n
        self.policy = policy
        self.kind = kind
        self.victims: tuple[int, ...] = ()
        self.struck_at: float | None = None
        self._runtime: Runtime | None = None
        self._seen = 0
        self._traffic: dict[int, int] = {pid: 0 for pid in config.pids}

    def install(self, runtime: Runtime) -> None:
        super().install(runtime)  # validates (vacuously: no victims yet)
        if runtime.delivery_tap is not None:
            raise ConfigurationError(
                "runtime already has a delivery tap; one observer at a time"
            )
        self._runtime = runtime
        if self.budget > 0:
            runtime.delivery_tap = self._observe

    # -- the sensor ----------------------------------------------------------
    def _count_of(self, payload: object) -> int:
        """How much this delivery weighs for the sender under the policy."""
        if self.policy != "dealer-heavy":
            return 1
        return sum(
            1
            for message in envelope_subs(payload) or (payload,)
            if isinstance(message, tuple) and message and message[0] in ("v", "svec")
        )

    def _observe(self, src: int, dst: int, payload: object) -> None:
        if self.victims or src < 1 or src > self.config.n:
            return  # struck already (tap left inert), or a runtime wake
        self._traffic[src] += self._count_of(payload)
        self._seen += 1
        if self._seen >= self.warmup:
            self._strike()

    def _strike(self) -> None:
        runtime = self._runtime
        reverse = self.policy != "least-active"
        ranked = sorted(
            self._traffic,
            key=(
                (lambda pid: (-self._traffic[pid], pid))
                if reverse
                else (lambda pid: (self._traffic[pid], pid))
            ),
        )
        victims = tuple(ranked[: self.budget])
        chosen = []
        monitor = runtime.monitor
        for pid in victims:
            behavior = BEHAVIOR_KINDS[self.kind](self._rng)
            behavior.install(runtime.host(pid))
            self.corruptions[pid] = behavior
            chosen.append((pid, self.kind))
            if monitor is not None:
                monitor.on_corruption(pid, self.kind, runtime.now)
        self.victims = victims
        self.struck_at = runtime.now
        self.spec = (
            "adaptive", self.seed, self.policy, self.kind, tuple(chosen),
        )
        # The nonfaulty set just shrank; waits whose predicates range over
        # it must re-evaluate even if no protocol state moved this event.
        runtime.notify_state_change()

    def describe(self) -> str:
        if not self.victims:
            return f"Adaptive({self.policy}->{self.kind}, unstruck)"
        return (
            f"Adaptive({self.policy}->{self.kind}, "
            f"victims={list(self.victims)}@{self.struck_at})"
        )
