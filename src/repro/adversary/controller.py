"""Adversary assembly: which processes are corrupt, and how.

An :class:`Adversary` binds behaviours to process ids and installs them on
a runtime.  Factory helpers build the standard corruption patterns used
throughout the tests and benchmarks.
"""

from __future__ import annotations

from random import Random

from repro.adversary.behaviors import (
    ABALiarBehavior,
    BiasedCoinBehavior,
    ByzantineBehavior,
    CrashBehavior,
    CrashRecoveryBehavior,
    EquivocatingDealerBehavior,
    LyingConfirmerBehavior,
    LyingReconstructorBehavior,
    MutatingBehavior,
    SilentBehavior,
    SlotPoisonerBehavior,
)
from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.sim.runtime import Runtime


class Adversary:
    """A static corruption: behaviours keyed by process id."""

    #: Adaptive adversaries (``repro.adversary.adaptive``) corrupt mid-run;
    #: runners consult this to keep their nonfaulty-set bookkeeping dynamic.
    adaptive: bool = False

    #: Reproducibility record, set by the factory that built this adversary:
    #: a picklable tuple like ``("random", seed, ((pid, kind), ...))`` that
    #: a :class:`~repro.sim.experiments.RunRecord` can carry and from which
    #: the exact corruption can be rebuilt.  None for hand-built adversaries.
    spec: tuple | None = None

    def __init__(self, corruptions: dict[int, ByzantineBehavior] | None = None):
        self.corruptions = dict(corruptions or {})

    @property
    def corrupt_pids(self) -> frozenset[int]:
        return frozenset(self.corruptions)

    def nonfaulty_pids(self, config: SystemConfig) -> list[int]:
        return [pid for pid in config.pids if pid not in self.corruptions]

    def validate(self, config: SystemConfig) -> None:
        if len(self.corruptions) > config.t:
            raise ConfigurationError(
                f"adversary corrupts {len(self.corruptions)} > t={config.t} processes"
            )
        unknown = [pid for pid in self.corruptions if pid not in config.pids]
        if unknown:
            raise ConfigurationError(f"adversary corrupts unknown processes {unknown}")

    def install(self, runtime: Runtime) -> None:
        self.validate(runtime.config)
        for pid, behavior in self.corruptions.items():
            behavior.install(runtime.host(pid))

    def describe(self) -> str:
        if not self.corruptions:
            return "none"
        parts = [f"{pid}:{b.describe()}" for pid, b in sorted(self.corruptions.items())]
        return ",".join(parts)


def no_adversary() -> Adversary:
    adv = Adversary({})
    adv.spec = ("none",)
    return adv


def crash_adversary(pids: list[int], after_messages: int = 0) -> Adversary:
    adv = Adversary({pid: CrashBehavior(after_messages) for pid in pids})
    adv.spec = ("crash", tuple(pids), after_messages)
    return adv


def silent_adversary(pids: list[int]) -> Adversary:
    adv = Adversary({pid: SilentBehavior() for pid in pids})
    adv.spec = ("silent", tuple(pids))
    return adv


def slot_poison_adversary(
    pids: list[int],
    rng: Random,
    fixed_slot: int | None = None,
) -> Adversary:
    """Slot-targeted vector poisoners (see
    :class:`~repro.adversary.behaviors.SlotPoisonerBehavior`): each victim
    corrupts exactly one (rotating, or ``fixed_slot``) coin slot per
    outbound vector window."""
    adv = Adversary(
        {
            pid: SlotPoisonerBehavior(
                Random(rng.getrandbits(64)), fixed_slot=fixed_slot
            )
            for pid in pids
        }
    )
    adv.spec = ("slot-poison", tuple(pids), fixed_slot)
    return adv


def crash_recovery_adversary(
    pids: list[int],
    phases: tuple[int, ...] = (40, 80),
    downtime: float = 30.0,
) -> Adversary:
    """Crash→recover→crash schedules (see
    :class:`~repro.adversary.behaviors.CrashRecoveryBehavior`)."""
    adv = Adversary(
        {pid: CrashRecoveryBehavior(phases, downtime) for pid in pids}
    )
    adv.spec = ("crash-recover", tuple(pids), tuple(phases), downtime)
    return adv


#: Catalogue used by :func:`random_adversary`; each entry builds one
#: behaviour.  Sub-behaviour rngs are seeded with ``getrandbits(64)`` —
#: a full-entropy draw from the single adversary stream — so an entire
#: random adversary is a pure function of one recorded integer seed.
BEHAVIOR_KINDS: dict[str, object] = {
    "honest_marked": lambda rng: ByzantineBehavior(),
    "crash": lambda rng: CrashBehavior(after_messages=rng.randrange(0, 200)),
    "silent": lambda rng: SilentBehavior(),
    "mutator": lambda rng: MutatingBehavior(Random(rng.getrandbits(64)), rate=rng.uniform(0.05, 0.6)),
    "equivocating_dealer": lambda rng: EquivocatingDealerBehavior(Random(rng.getrandbits(64))),
    "lying_reconstructor": lambda rng: LyingReconstructorBehavior(Random(rng.getrandbits(64))),
    "lying_confirmer": lambda rng: LyingConfirmerBehavior(Random(rng.getrandbits(64))),
    "biased_coin": lambda rng: BiasedCoinBehavior(),
    "aba_liar": lambda rng: ABALiarBehavior(Random(rng.getrandbits(64))),
    "slot_poison": lambda rng: SlotPoisonerBehavior(Random(rng.getrandbits(64))),
    "crash_recover": lambda rng: CrashRecoveryBehavior(
        phases=(rng.randrange(20, 80), rng.randrange(40, 160)),
        downtime=rng.uniform(10.0, 60.0),
    ),
}


def random_adversary(
    config: SystemConfig,
    rng: Random | int,
    count: int | None = None,
    kinds: list[str] | None = None,
) -> Adversary:
    """Corrupt a random set of up to ``t`` processes with random behaviours.

    Every draw — victim count, victim set, behaviour kinds, and each
    behaviour's private randomness — comes from one ``Random`` stream
    seeded by a single integer, recorded in the returned adversary's
    ``spec`` as ``("random", seed, ((pid, kind), ...))``.  Passing the
    same integer (or a sweep replaying a ``RunRecord``'s
    ``adversary_spec`` seed) rebuilds the exact corruption; passing a
    ``Random`` draws the seed from it first, so existing callers stay
    seeded-deterministic.
    """
    seed = rng if isinstance(rng, int) else rng.getrandbits(64)
    stream = Random(seed)
    if count is None:
        count = stream.randint(0, config.t)
    count = min(count, config.t)
    names = sorted(kinds) if kinds is not None else sorted(BEHAVIOR_KINDS)
    victims = stream.sample(sorted(config.pids), count)
    corruptions = {}
    chosen = []
    for pid in victims:
        kind = stream.choice(names)
        corruptions[pid] = BEHAVIOR_KINDS[kind](stream)
        chosen.append((pid, kind))
    adv = Adversary(corruptions)
    adv.spec = ("random", seed, tuple(chosen))
    return adv
