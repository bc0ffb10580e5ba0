"""Byzantine adversary library: behaviours + corruption controller."""

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
from repro.adversary.schedulers import (
    CoinRevealEclipseScheduler,
    EnvelopeSplittingScheduler,
    SlotSplittingScheduler,
    VoteBalancingScheduler,
    per_message,
)
from repro.adversary.controller import (
    BEHAVIOR_KINDS,
    Adversary,
    crash_adversary,
    crash_recovery_adversary,
    no_adversary,
    random_adversary,
    silent_adversary,
    slot_poison_adversary,
)
from repro.adversary.adaptive import POLICIES, AdaptiveAdversary

__all__ = [
    "ABALiarBehavior",
    "AdaptiveAdversary",
    "Adversary",
    "BEHAVIOR_KINDS",
    "BiasedCoinBehavior",
    "ByzantineBehavior",
    "CoinRevealEclipseScheduler",
    "CrashBehavior",
    "CrashRecoveryBehavior",
    "EnvelopeSplittingScheduler",
    "EquivocatingDealerBehavior",
    "LyingConfirmerBehavior",
    "LyingReconstructorBehavior",
    "MutatingBehavior",
    "POLICIES",
    "SilentBehavior",
    "SlotPoisonerBehavior",
    "SlotSplittingScheduler",
    "VoteBalancingScheduler",
    "crash_adversary",
    "crash_recovery_adversary",
    "no_adversary",
    "per_message",
    "random_adversary",
    "silent_adversary",
    "slot_poison_adversary",
]
