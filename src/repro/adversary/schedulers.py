"""Protocol-aware adversarial schedulers.

The plain schedulers in :mod:`repro.sim.scheduler` delay by address only.
The scheduler here implements the classic worst case for coin-based
agreement — the *vote-balancing* schedule: vote deliveries are ordered by
their *value*, so that one half of the processes keeps seeing a majority
for 0 and the other half for 1 (as long as both values exist among the
current estimates).  Every round then ends with the processes consulting
the coin:

* against a **private coin** (Ben-Or, Bracha) the estimates re-randomize
  each round and stay split for an expected number of rounds exponential
  in ``n`` — the baselines' blow-up in experiment E2;
* against an **ε-failure coin** (Canetti-Rabin with failed AVSS) the
  adversary keeps the estimates split forever once the coin fails — the
  non-termination of experiment E8;
* against a **true common coin** (the paper's SCC) the schedule is
  powerless: one good flip hands every process the same estimate and the
  next round decides.

Eventual delivery still holds: held messages arrive after a finite delay.

Coalescing interplay: a scheduler may be handed *envelope* payloads
carrying several logical messages (see :mod:`repro.sim.runtime`).
:class:`VoteBalancingScheduler` classifies an envelope by its dominant vote
sub-payload and delays it as a unit; :class:`EnvelopeSplittingScheduler`
instead refuses shared delivery outright — a vetoing scheduler means the
window never buffers, so every message is scheduled the moment it is sent:
the full per-message adversarial surface at the per-message event cost.

Session-vector interplay: one logical message may be a ``("svec", ...)``
slot-vector carrying a whole coin batch's per-session messages, one
reliable broadcast a fold of every vector its origin broadcast in that step
(see :mod:`repro.core.vectormux`), or a ``("abav", ...)`` vector of a
batch's votes.  :class:`SlotSplittingScheduler` vetoes that packing the
same way — under ``splits_slots`` no mux packs, which is exact per-session
adversarial power.

The two wrappers are the transport's only off-switch, over *any* base
policy, random draws included: ``SlotSplit(EnvSplit(base))`` is the
per-message run, ``SlotSplit(base)`` envelopes only, ``EnvSplit(base)``
vectors only, ``base`` both (``tests/golden/aggregation_equiv.json``).
"""

from __future__ import annotations

from repro.broadcast.manager import rb_message
from repro.config import SystemConfig
from repro.core.agreement import vote_entries
from repro.core.vectormux import rb_kinds
from repro.sim.process import envelope_subs
from repro.sim.scheduler import Scheduler


class VoteBalancingScheduler(Scheduler):
    """Order vote deliveries by value to keep the system split.

    Receivers in group A (the first half of the pids) get 1-valued votes
    late; receivers in group B get 0-valued votes late.  While both values
    exist among the estimates, each group keeps adopting "its" value, no
    phase-2 value exceeds ``n/2`` system-wide, and every process falls
    through to the coin in every round.
    """

    def __init__(self, config: SystemConfig, base_delay: float = 1.0, hold: float = 50.0):
        self.n = config.n
        self._base = base_delay
        self._hold = hold
        self._group_a = frozenset(range(1, config.n // 2 + 1))

    @classmethod
    def _vote_value(cls, payload: object) -> int | None:
        """The binary value a (possibly packed) message argues for.

        An envelope is classified by its *dominant* sub-payload and a vote
        vector ``("abav", seq, entries)`` by its dominant entry: the value
        most of them argue for (ties break to the first classifiable one).
        Without this every packed vote would fall through to the base
        delay, and since packing is the default transport the balancing
        attack would silently vanish from every batched run.
        """
        return cls._dominant(
            cls._single_vote_value(message)
            for message in envelope_subs(payload) or (payload,)
        )

    @staticmethod
    def _dominant(values) -> int | None:
        """The bit most of ``values`` are (``None`` entries do not count),
        the first bit on a tie, ``None`` when there is no bit at all."""
        counts = [0, 0]
        first: int | None = None
        for value in values:
            if value is None:
                continue
            if first is None:
                first = value
            counts[value] += 1
        if counts[0] == counts[1]:
            return first
        return 0 if counts[0] > counts[1] else 1

    @staticmethod
    def _vote_bit(vote: object) -> int | None:
        if isinstance(vote, tuple) and len(vote) == 2:
            vote = vote[0]  # flagged phase-3 vote (w, D)
        return int(vote) if vote in (0, 1) else None

    @classmethod
    def _single_vote_value(cls, payload: object) -> int | None:
        """The binary value one logical message argues for, if any."""
        if not isinstance(payload, tuple):
            return None
        # Ben-Or votes are plain sends ("benor", instance_id, r, phase, vote).
        if len(payload) == 5 and payload[0] == "benor":
            return cls._vote_bit(payload[4])
        # ABA votes travel as RB values, one vote or a step's vote vector.
        rb = rb_message(payload)
        if rb is None:
            return None
        return cls._dominant(cls._vote_bit(entry[3]) for entry in vote_entries(rb[1]))

    def delay(self, src: int, dst: int, payload: object, now: float) -> float:
        value = self._vote_value(payload)
        if value is None:
            return self._base
        held = 1 if dst in self._group_a else 0
        if value == held:
            return self._hold
        return self._base

    def describe(self) -> str:
        return f"VoteBalancing(hold={self._hold})"


class EnvelopeSplittingScheduler(Scheduler):
    """Adversarial wrapper that splits every envelope back into per-message
    deliveries.

    The coalescing contract defines delay/drop/mutate semantics per
    *logical* message; this scheduler is the path that makes the claim
    checkable — a vetoing scheduler means the window never buffers: with
    ``splits_envelopes`` set every send goes through :meth:`delay` and onto
    the queue the moment it is made and no envelope is ever formed, so an
    adversary wrapping any base policy keeps exactly the per-message power
    (and the base exactly the call order) it had before coalescing existed.
    """

    splits_envelopes = True

    def __init__(self, base: Scheduler):
        self._base = base
        # Inherit the inner policy's slot stance so the composed wrapper
        # order does not matter.
        self.splits_slots = bool(getattr(base, "splits_slots", False))

    def delay(self, src: int, dst: int, payload: object, now: float) -> float:
        return self._base.delay(src, dst, payload, now)

    def fixed_delay(self) -> float | None:
        return self._base.fixed_delay()

    def describe(self) -> str:
        return f"Split({self._base.describe()})"


class SlotSplittingScheduler(Scheduler):
    """Adversarial wrapper that vetoes session-vector packing entirely.

    The slot-vector analogue of :class:`EnvelopeSplittingScheduler`, one
    layer up: with ``splits_slots`` set the VSS layer never folds a coin's
    per-slot session messages into ``("svec", ...)`` vectors (nor a batch
    its votes into ``("abav", ...)``) — every slot message is sent,
    scheduled and delivered per session, so an adversary wrapping any base
    policy keeps exactly the per-session power it had before aggregation
    existed.  Compose with :class:`EnvelopeSplittingScheduler` to strip
    both transports at once: that run is the paper's literal per-message
    wire.
    """

    splits_slots = True

    def __init__(self, base: Scheduler):
        self._base = base
        # Inherit the inner policy's envelope stance so the composed
        # wrapper order does not matter.
        self.splits_envelopes = bool(getattr(base, "splits_envelopes", False))

    def delay(self, src: int, dst: int, payload: object, now: float) -> float:
        return self._base.delay(src, dst, payload, now)

    def fixed_delay(self) -> float | None:
        return self._base.fixed_delay()

    def describe(self) -> str:
        return f"SlotSplit({self._base.describe()})"


def per_message(base: Scheduler) -> Scheduler:
    """``base`` under both vetoes: one scheduled event per logical message,
    one message per session — the paper's literal wire."""
    return SlotSplittingScheduler(EnvelopeSplittingScheduler(base))


class CoinRevealEclipseScheduler(Scheduler):
    """Eclipse a minority exactly when coin reveals start flowing.

    The attack ROADMAP item 5 names for the batched service path: in a
    batch, :class:`~repro.core.coin.SharedCoinGate` releases the shared
    round coin only after every live instance fixed its round position —
    the release boundary is when ``"rv"`` (reconstruct-value) broadcasts
    start flowing.  This scheduler watches for reveal-carrying traffic
    (plain VSS values, slot-vectors, and envelopes containing either) and,
    for a ``window`` of simulated time after each sighting, holds every
    message *crossing* the victim-minority boundary for an extra ``hold``
    — so the victims learn the coin (and contribute their reconstruct
    shares) as late as the model allows, precisely across gate releases.
    Messages inside either side of the partition flow normally, and
    eventual delivery holds (``hold`` is finite), so this is a legal
    adversary; the paper's claim under test is that the coin's t-privacy
    and the gate's release discipline make the eclipse powerless beyond
    delay.

    ``victims`` should be a minority (≤ t in the ``"eclipse"`` sweep
    cells, so a cell stays honest-majority in the scheduler sense too);
    the adversary gets reveal-sighted eclipse windows on top of whatever
    ``base`` does.
    """

    def __init__(
        self,
        base: Scheduler,
        victims: frozenset[int] | set[int],
        hold: float = 40.0,
        window: float = 30.0,
    ):
        if not (hold > 0.0) or not (window > 0.0):
            raise ValueError("hold and window must be positive")
        self._base = base
        self._victims = frozenset(victims)
        self._hold = hold
        self._window = window
        self._eclipse_until = float("-inf")
        self.splits_envelopes = bool(getattr(base, "splits_envelopes", False))
        self.splits_slots = bool(getattr(base, "splits_slots", False))

    @property
    def victims(self) -> frozenset[int]:
        return self._victims

    @staticmethod
    def _carries_reveal(payload: object) -> bool:
        """Does this wire payload carry any reconstruct-phase traffic?"""
        for message in envelope_subs(payload) or (payload,):
            rb = rb_message(message)
            if rb is not None and "rv" in rb_kinds(rb[1]):
                return True
        return False

    def delay(self, src: int, dst: int, payload: object, now: float) -> float:
        base = self._base.delay(src, dst, payload, now)
        if self._carries_reveal(payload):
            until = now + self._window
            if until > self._eclipse_until:
                self._eclipse_until = until
        if now < self._eclipse_until and (
            (src in self._victims) != (dst in self._victims)
        ):
            return base + self._hold
        return base

    def describe(self) -> str:
        return (
            f"RevealEclipse(victims={sorted(self._victims)}, "
            f"hold={self._hold}, window={self._window})"
        )
