"""Byzantine behaviour library.

Two complementary attack surfaces:

* **Outbound filters** — rewrite/drop/duplicate any outgoing message,
  including broadcast-internal traffic.  This is the generic chaos monkey
  used by the property-based tests (a real byzantine process can send
  anything to anyone).
* **Deviation hooks** — named methods the protocol modules query at every
  point where the protocol lets a corrupt process choose what to do
  (dealing inconsistent polynomials, lying during reconstruction,
  broadcasting bogus sets, biasing coin secrets, ...).  These drive the
  targeted property experiments, e.g. the paper's Example 1.

A behaviour object may use either or both surfaces.

Coalescing contract: outbound filters run in :meth:`ProcessHost.send`,
*before* the runtime's wire-level coalescer buffers anything — so every
filter sees, rewrites, drops, or multiplies individual **logical**
messages, never envelopes.  A mutator corrupting one message therefore
never touches the siblings that end up sharing its envelope, and a
crash-after-N-sends behaviour crashes at the same logical message whether
or not the scheduler splits envelopes.  (A byzantine process may of course *forge* an
``("env", ...)`` payload through its filter; receivers unpack it with the
same per-sub-payload validation as real envelopes, which grants no power
beyond sending the sub-payloads individually.)

Session-vector contract (the PR-4 contract extended one layer up): a host
carrying *any* behaviour or outbound filter never packs ``("svec", ...)``
slot-vectors — its per-slot coin session messages travel per session, so
mutators and crash budgets keep acting on logical **slot** messages, and
the deviation hooks below (which run inside the per-session instances,
before any packing) stay per-slot by construction.  Forged svec payloads
are unpacked with full per-slot validation (see
:mod:`repro.core.vectormux`), granting nothing beyond sending the slots
individually.
"""

from __future__ import annotations

from random import Random

from repro.sim.process import ProcessHost


class ByzantineBehavior:
    """Base behaviour: corrupt but protocol-following ("honest-but-marked").

    Useful on its own to measure how the stack performs when the corrupt
    set misbehaves only through the scheduler.
    """

    def install(self, host: ProcessHost) -> None:
        host.behavior = self
        self.on_install(host)

    def on_install(self, host: ProcessHost) -> None:
        """Subclass hook; default does nothing."""

    def describe(self) -> str:
        return type(self).__name__


class CrashBehavior(ByzantineBehavior):
    """Fail-stop after sending ``after_messages`` messages (0 = never starts)."""

    def __init__(self, after_messages: int = 0):
        if after_messages < 0:
            raise ValueError("after_messages must be >= 0")
        self.after_messages = after_messages

    def on_install(self, host: ProcessHost) -> None:
        remaining = self.after_messages

        def filter_out(dst: int, payload: tuple):
            nonlocal remaining
            if remaining <= 0:
                host.crashed = True
                return None
            remaining -= 1
            return payload

        if self.after_messages == 0:
            host.crash()
        else:
            host.outbound_filter = filter_out

    def describe(self) -> str:
        return f"Crash(after={self.after_messages})"


class SilentBehavior(ByzantineBehavior):
    """Receives everything, never sends anything (distinct from crash in
    that the process keeps consuming messages — the cheapest liveness
    attack)."""

    def on_install(self, host: ProcessHost) -> None:
        host.outbound_filter = lambda dst, payload: None


class MutatingBehavior(ByzantineBehavior):
    """Randomly corrupt outgoing messages.

    With probability ``rate`` per message, rewrite one int leaf to a random
    field element, or drop, or duplicate the message.  Touches every layer,
    including broadcast internals — the broadest byzantine surface the
    property tests exercise.
    """

    def __init__(self, rng: Random, rate: float = 0.3):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.rng = rng
        self.rate = rate
        self._prime: int | None = None

    def on_install(self, host: ProcessHost) -> None:
        self._prime = host.runtime.field.prime

        def filter_out(dst: int, payload: tuple):
            if self.rng.random() >= self.rate:
                return payload
            roll = self.rng.random()
            if roll < 0.2:
                return None  # drop
            if roll < 0.3:
                return [payload, payload]  # duplicate
            return self._mutate(payload)

        host.outbound_filter = filter_out

    def _mutate(self, obj: object) -> object:
        """Rewrite one randomly chosen int leaf inside a payload tree."""
        if isinstance(obj, bool):
            return obj
        if isinstance(obj, int):
            return self.rng.randrange(self._prime)
        if isinstance(obj, tuple) and obj:
            idx = self.rng.randrange(len(obj))
            if idx == 0 and isinstance(obj[0], str):
                return obj  # keep routing tags intact so the lie lands
            items = list(obj)
            items[idx] = self._mutate(items[idx])
            return tuple(items)
        if isinstance(obj, frozenset) and obj:
            items = sorted(obj, key=repr)
            victim = items[self.rng.randrange(len(items))]
            return frozenset(x for x in items if x != victim)
        if isinstance(obj, dict) and obj:
            key = self.rng.choice(sorted(obj, key=repr))
            mixed = dict(obj)
            mixed[key] = self._mutate(mixed[key])
            return mixed
        return obj

    def describe(self) -> str:
        return f"Mutator(rate={self.rate})"


class EquivocatingDealerBehavior(ByzantineBehavior):
    """MW-SVSS / SVSS dealer that hands different recipients inconsistent
    shares.

    Per the shunning design this must either be caught at share time (the
    confirmation machinery refuses) or produce disagreeing reconstructions
    followed by a shun — this behaviour is how Example 1 and the shunning
    budget experiments drive the protocol.
    """

    def __init__(self, rng: Random):
        self.rng = rng

    # deviation hooks queried by the core modules ------------------------------
    def corrupt_mw_share_values(
        self, session: object, dst: int, values: list[int], prime: int
    ) -> list[int]:
        """Perturb the share vector sent to ``dst`` in MW-SVSS step 1."""
        mixed = list(values)
        idx = self.rng.randrange(len(mixed))
        mixed[idx] = self.rng.randrange(prime)
        return mixed

    def corrupt_svss_rows(
        self, session: object, dst: int, row: list[int], col: list[int], prime: int
    ) -> tuple[list[int], list[int]]:
        """Perturb the row/column evaluation points sent to ``dst``."""
        row = list(row)
        col = list(col)
        if self.rng.random() < 0.5:
            row[self.rng.randrange(len(row))] = self.rng.randrange(prime)
        else:
            col[self.rng.randrange(len(col))] = self.rng.randrange(prime)
        return row, col


class LyingReconstructorBehavior(ByzantineBehavior):
    """Broadcasts wrong values in reconstruct (R' step 1).

    This is the lie that DMM's ACK/DEAL machinery exists to punish: the
    value disagrees with what some process recorded during the share phase,
    so the liar lands in a `D_i` set (or is silently delayed forever).
    """

    def __init__(self, rng: Random, rate: float = 1.0):
        self.rng = rng
        self.rate = rate

    def corrupt_mw_reconstruct_values(
        self, session: object, values: dict[int, int], prime: int
    ) -> dict[int, int]:
        mixed = dict(values)
        for key in list(mixed):
            if self.rng.random() < self.rate:
                mixed[key] = self.rng.randrange(prime)
        return mixed


class LyingConfirmerBehavior(ByzantineBehavior):
    """Sends wrong private confirmation values in MW-SVSS step 2."""

    def __init__(self, rng: Random, rate: float = 1.0):
        self.rng = rng
        self.rate = rate

    def corrupt_mw_confirm_value(
        self, session: object, dst: int, value: int, prime: int
    ) -> int:
        if self.rng.random() < self.rate:
            return self.rng.randrange(prime)
        return value


class BiasedCoinBehavior(ByzantineBehavior):
    """Deals all-zero secrets in the common coin (tries to force output 0).

    The coin's analysis tolerates this: every attach set contains at least
    t+1 nonfaulty dealers whose uniform secrets keep each value uniform.
    """

    def coin_secret(self, session: object, slot: int, honest: int, u: int) -> int:
        return 0


class ABALiarBehavior(ByzantineBehavior):
    """Votes the opposite of its honest value in every agreement phase and
    flips its coin contribution, within what message validation allows."""

    def __init__(self, rng: Random):
        self.rng = rng

    def aba_vote(self, round_no: int, phase: int, honest: object) -> object:
        if isinstance(honest, int):
            return 1 - honest if honest in (0, 1) else honest
        return honest

    def coin_secret(self, session: object, slot: int, honest: int, u: int) -> int:
        return self.rng.randrange(u)


class _EveryFamily:
    """``svec_split``'s family registry for a sender that splits only the
    session ids it built itself: every coin session id is a family."""

    def __contains__(self, csid: object) -> bool:
        return True


_EVERY_FAMILY = _EveryFamily()


class SlotPoisonerBehavior(ByzantineBehavior):
    """Corrupt exactly one coin *slot* per outbound vector window.

    The aggregation-aware fault injector: the common coin runs one session
    per ``(dealer, slot)`` with ``slot ∈ 1..n``, and the session-vector
    transport would pack each dealer-group's per-slot messages into one
    ``("svec", ...)`` vector.  A corrupt host never packs (PR-5 contract),
    so this behaviour attacks the *logical* slot stream instead: within
    every window of ``n`` consecutive slots per (dst, group, kind) it
    poisons the session body of exactly one slot — a rotating target by
    default, or ``fixed_slot`` for the composition tests — and passes every
    sibling slot through untouched.  The per-slot isolation claim of the
    aggregation layers is exactly what this probes: a poisoned slot must
    cost (at most) its own session, never its vector siblings.

    Poisoning rewrites one int leaf of the body to a random field element,
    preserving the routing prefix (tag, session id, kind) so the lie lands
    in the right session instead of being dropped at routing.
    """

    def __init__(
        self, rng: Random, fixed_slot: int | None = None, start_slot: int = 1
    ):
        if fixed_slot is not None and fixed_slot < 1:
            raise ValueError("fixed_slot must be a 1-based slot index")
        if start_slot < 1:
            raise ValueError("start_slot must be a 1-based slot index")
        self.rng = rng
        self.fixed_slot = fixed_slot
        self.start_slot = start_slot
        self._prime: int | None = None
        self._n: int | None = None
        self.poisoned = 0
        self.passed = 0

    def _poison(self, body: object) -> object:
        """Rewrite one rng-chosen int leaf of ``body`` to a *different*
        random field element (bools and routing strings untouched)."""
        leaves: list[tuple] = []

        def walk(obj: object, path: tuple) -> None:
            if isinstance(obj, bool):
                return
            if isinstance(obj, int):
                leaves.append(path)
            elif isinstance(obj, (tuple, list)):
                for idx, item in enumerate(obj):
                    walk(item, path + (idx,))

        walk(body, ())
        if not leaves:
            return body
        target = leaves[self.rng.randrange(len(leaves))]

        def rebuild(obj: object, path: tuple) -> object:
            if not path:
                poisoned = self.rng.randrange(self._prime)
                return poisoned if poisoned != obj else (poisoned + 1) % self._prime
            items = list(obj)
            items[path[0]] = rebuild(items[path[0]], path[1:])
            return tuple(items) if isinstance(obj, tuple) else items

        return rebuild(body, target)

    def on_install(self, host: ProcessHost) -> None:
        # Imported here: repro.core imports repro.adversary.
        from repro.core.sessions import svec_split

        self._prime = host.runtime.field.prime
        self._n = host.runtime.config.n
        n = self._n
        start = self.start_slot
        fixed = self.fixed_slot
        #: (dst, group, kind) -> [window index, last slot seen].  Slots per
        #: stream leave in ascending order (the coin's join loop runs slots
        #: 1..n), so a non-increasing slot means the next vector window
        #: began and the rotating target advances — this is what keeps the
        #: damage at exactly one slot per window instead of trailing the
        #: cursor across several.
        windows: dict[tuple, list[int]] = {}

        def filter_out(dst: int, payload: tuple):
            if not (
                isinstance(payload, tuple)
                and len(payload) == 4
                and payload[0] == "v"
            ):
                return payload
            _, sid, kind, body = payload
            located = svec_split(sid, _EVERY_FAMILY)
            if located is None or type(located[1]) is not int:
                return payload
            group, slot = located
            key = (dst, group, kind)
            state = windows.get(key)
            if state is None:
                state = windows[key] = [0, 0]
            if slot <= state[1]:
                state[0] += 1
            state[1] = slot
            target = fixed if fixed is not None else (start - 1 + state[0]) % n + 1
            if slot != target:
                self.passed += 1
                return payload
            self.poisoned += 1
            return ("v", sid, kind, self._poison(body))

        host.outbound_filter = filter_out

    def describe(self) -> str:
        where = (
            f"slot={self.fixed_slot}" if self.fixed_slot is not None else "rotating"
        )
        return f"SlotPoisoner({where})"


class CrashRecoveryBehavior(ByzantineBehavior):
    """Crash→recover→crash schedule driven by per-phase send budgets.

    Phase ``k`` lets the host send ``phases[k]`` messages, then fail-stop;
    the runtime recovers it ``downtime`` simulated-time units later (wire
    state purged, protocol state intact — see
    :meth:`~repro.sim.runtime.Runtime.recover`), at which point the next
    phase budget arms.  After the last phase the host stays up for good,
    so every schedule is degraded-but-live, never fail-stop.

    One instance per host: the recovery hook the runtime looks up
    (``on_recover``) is bound to the installed host's schedule state.
    """

    def __init__(self, phases: tuple[int, ...] = (40, 80), downtime: float = 30.0):
        phases = tuple(phases)
        if not phases or any(p < 1 for p in phases):
            raise ValueError("phases must be a non-empty tuple of budgets >= 1")
        if not (downtime > 0.0):
            raise ValueError("downtime must be positive")
        self.phases = phases
        self.downtime = downtime
        self.crashes = 0
        self.recoveries = 0

    def on_install(self, host: ProcessHost) -> None:
        runtime = host.runtime
        state = {"idx": 0, "remaining": self.phases[0]}

        def filter_out(dst: int, payload: tuple):
            remaining = state["remaining"]
            if remaining is None:
                return payload  # schedule exhausted: permanently live
            if remaining <= 0:
                self.crashes += 1
                host.crashed = True
                runtime.schedule_recovery(host.pid, runtime.now + self.downtime)
                return None
            state["remaining"] = remaining - 1
            return payload

        def on_recover(recovered: ProcessHost) -> None:
            self.recoveries += 1
            state["idx"] += 1
            if state["idx"] < len(self.phases):
                state["remaining"] = self.phases[state["idx"]]
            else:
                state["remaining"] = None

        host.outbound_filter = filter_out
        # Bound per install; the runtime's recovery path finds it by name.
        self.on_recover = on_recover

    def describe(self) -> str:
        return f"CrashRecovery(phases={self.phases}, down={self.downtime})"
