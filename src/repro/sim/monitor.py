"""Runtime invariant monitor: the paper's guarantees, checked live.

The reproduction's credibility rests on invariants that hold *during*
adversarial runs, not just on end-of-run assertions:

* **Agreement safety** — no two honest processes decide differently in the
  same agreement instance (Byzantine agreement's agreement property: each
  decision is held to the instance's first honest one), and no honest
  process decides twice with different values (``self-contradiction``: a
  relaunch contradicting its journal; the first value is kept, and an
  identical repeat is only a trail note).  A decision is recorded before
  any rule fires, so the verdict lists what was decided, violations too.
* **Validity** — if every process (honest or not) held the same input
  value, every honest decision must be that value.  Unanimity over all
  ``n`` inputs is the weakest precondition that stays sound under adaptive
  corruption: the honest set can shrink mid-run, but a value that was
  everyone's input is trivially every honest party's input.
* **Shunning budget** — the DMM guarantees each (observer, culprit) pair
  shuns at most once for the whole run, honest observers never shun honest
  culprits, and an honest observer accumulates at most ``t(n-t)`` shun
  events (it can shun each of at most ``t`` faulty parties once... summed
  over the at most ``n-t`` honest observers).  A repeat pair, an
  honest-on-honest shun, or a blown budget is a protocol bug.
* **Liveness watchdog** — under fair schedulers a run must progress; an
  agreement instance entering a round beyond ``round_bound`` trips the
  watchdog.  (Almost-sure termination makes any fixed bound violable with
  vanishing probability, so monitored sweeps pick bounds far beyond the
  observed maxima; the watchdog catches livelocks, not tail luck.)
* **Coin ε-quality** — per coin invocation, whether the honest outputs
  agreed or split.  A split coin is *legal* (the paper only promises
  probability ≥ ε of unanimity per value), so the monitor tallies rather
  than raises; sweep records expose the tallies.

A violated invariant raises :class:`InvariantViolation` carrying the
offending event plus the monitor's recent event trail, which propagates
out of the event loop to the harness (``run_scenario`` records it, and
``SweepResult.violations`` lists it: see :mod:`repro.sim.experiments`).

The monitor is passive instrumentation: protocol modules call its hooks at
their observable-state transition points (``agreement._decide``,
``manager._record_shun``, ``coin._maybe_output``, recovery), each hook is
a few dict operations, and a runtime without a monitor pays one ``is not
None`` test per transition.  Honesty is evaluated at event time
(``host.behavior is None``), which is exact under adaptive corruption
because the corrupt set only grows: a process honest *now* was honest when
it decided earlier.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ReproError

#: Observed transitions a violation carries as its ``trail``.
TRAIL_LIMIT = 64


class InvariantViolation(ReproError):
    """A monitored protocol invariant failed during a run.

    Carries the machine-readable ``kind`` (e.g. ``"agreement-safety"``),
    a ``detail`` dict describing the offending event, and the monitor's
    recent event ``trail`` — the last observed transitions, oldest first —
    so a violation is diagnosable from the exception alone.
    """

    def __init__(self, kind: str, message: str, detail: dict, trail: list):
        super().__init__(f"[{kind}] {message}")
        self.kind = kind
        self.detail = detail
        self.trail = trail


class InvariantMonitor:
    """Live invariant checker attached to one :class:`~repro.sim.runtime.Runtime`.

    Construct, :meth:`install` onto the runtime (before the run starts),
    optionally :meth:`expect_inputs`, then read :meth:`verdict` after the
    run.  All verdict fields are built from sorted containers so two
    replays of the same event stream produce bit-identical verdicts.
    """

    def __init__(self, round_bound: int | None = None):
        self.round_bound = round_bound
        self.runtime = None
        self._n = 0
        self._t = 0
        #: (instance, pid) -> (value, round) for *honest-at-decision* pids.
        self._decisions: dict[tuple, tuple] = {}
        #: instance -> unanimous input value (only set when all n agree).
        self._unanimous: dict[object, object] = {}
        #: every (observer, culprit) shun pair seen, with observer honesty.
        self._shun_pairs: set[tuple[int, int]] = set()
        self._honest_shuns = 0
        #: csid -> {pid: value} outputs of honest processes.
        self._coin_outputs: dict[object, dict[int, object]] = {}
        self._max_round = 0
        self._corruptions: list[tuple] = []
        self._recoveries: list[tuple] = []
        self.trail: deque = deque(maxlen=TRAIL_LIMIT)

    # -- wiring --------------------------------------------------------------
    def install(self, runtime) -> None:
        if runtime.monitor is not None and runtime.monitor is not self:
            raise ReproError("runtime already has an invariant monitor")
        self.runtime = runtime
        self._n = runtime.config.n
        self._t = runtime.config.t
        runtime.monitor = self

    def expect_inputs(self, instance: object, inputs: dict[int, object]) -> None:
        """Declare the instance's input map (pid -> value) for the validity
        check; only a unanimous map constrains decisions (see module doc)."""
        values = set(inputs.values())
        if len(inputs) == self._n and len(values) == 1:
            self._unanimous[instance] = values.pop()

    # -- helpers -------------------------------------------------------------
    def _honest(self, pid: int) -> bool:
        return self.runtime.host(pid).behavior is None

    def _note(self, kind: str, detail: tuple) -> None:
        self.trail.append((self.runtime.now, kind, detail))

    def _fail(self, kind: str, message: str, detail: dict):
        raise InvariantViolation(kind, message, detail, list(self.trail))

    # -- protocol hooks ------------------------------------------------------
    def on_decision(self, instance: object, pid: int, value: object, r: int) -> None:
        self._note("decide", (instance, pid, value, r))
        if not self._honest(pid):
            return
        prior = self._decisions.get((instance, pid))
        if prior is not None:
            if prior[0] == value:
                return  # an identical repeat: the trail note is all
            self._fail(
                "self-contradiction",
                f"honest process {pid} decided {value!r} in instance "
                f"{instance!r} after deciding {prior[0]!r}",
                {"instance": instance, "pid": pid, "prior": prior[0],
                 "decided": value},
            )
        # Stored before any rule fires: the verdict lists every honest
        # decision, the offending one included.
        self._decisions[(instance, pid)] = (value, r)
        for (inst, other), (other_value, other_r) in self._decisions.items():
            if inst != instance or other == pid or not self._honest(other):
                continue
            # The instance's first honest decision is the reference, so
            # each deviating decider is one violation.
            if other_value != value:
                self._fail(
                    "agreement-safety",
                    f"honest processes {other} and {pid} decided "
                    f"{other_value!r} vs {value!r} in instance {instance!r}",
                    {
                        "instance": instance,
                        "decisions": {other: other_value, pid: value},
                        "rounds": {other: other_r, pid: r},
                    },
                )
            break
        if instance in self._unanimous:
            expected = self._unanimous[instance]
            if value != expected:
                self._fail(
                    "validity",
                    f"all inputs of instance {instance!r} were {expected!r} "
                    f"but honest process {pid} decided {value!r}",
                    {"instance": instance, "expected": expected, "pid": pid,
                     "decided": value},
                )

    def on_round(self, instance: object, pid: int, r: int) -> None:
        if r > self._max_round:
            self._max_round = r
        bound = self.round_bound
        if bound is not None and r > bound and self._honest(pid):
            self._note("round", (instance, pid, r))
            self._fail(
                "liveness",
                f"honest process {pid} entered round {r} of instance "
                f"{instance!r}, beyond the watchdog bound {bound}",
                {"instance": instance, "pid": pid, "round": r, "bound": bound},
            )

    def on_shun(self, observer: int, culprit: int, session: object) -> None:
        self._note("shun", (observer, culprit, session))
        pair = (observer, culprit)
        if pair in self._shun_pairs:
            self._fail(
                "shun-repeat",
                f"process {observer} shunned {culprit} twice "
                f"(second time in session {session!r})",
                {"observer": observer, "culprit": culprit, "session": session},
            )
        self._shun_pairs.add(pair)
        if self._honest(observer):
            if self._honest(culprit):
                self._fail(
                    "honest-shun",
                    f"honest process {observer} shunned honest process "
                    f"{culprit} in session {session!r}",
                    {"observer": observer, "culprit": culprit,
                     "session": session},
                )
            self._honest_shuns += 1
            budget = self._t * (self._n - self._t)
            if self._honest_shuns > budget:
                self._fail(
                    "shun-budget",
                    f"honest observers accumulated {self._honest_shuns} shun "
                    f"events, beyond the t(n-t) = {budget} budget",
                    {"events": self._honest_shuns, "budget": budget},
                )

    def on_coin_output(self, csid: object, pid: int, value: object) -> None:
        if not self._honest(pid):
            return
        outputs = self._coin_outputs.get(csid)
        if outputs is None:
            outputs = self._coin_outputs[csid] = {}
        outputs[pid] = value

    def on_corruption(self, pid: int, kind: str, time: float) -> None:
        self._note("corrupt", (pid, kind))
        self._corruptions.append((time, pid, kind))

    def on_recovery(self, pid: int, time: float) -> None:
        self._note("recover", (pid,))
        self._recoveries.append((time, pid))

    # -- results -------------------------------------------------------------
    def verdict(self) -> dict:
        """Deterministic summary of everything observed (no violations —
        those raised already)."""
        coin_agreed = 0
        coin_split = 0
        for outputs in self._coin_outputs.values():
            if len(set(outputs.values())) <= 1:
                coin_agreed += 1
            else:
                coin_split += 1
        return {
            "decisions": sorted(
                (inst, pid, value, r)
                for (inst, pid), (value, r) in self._decisions.items()
            ),
            "max_round": self._max_round,
            "shun_pairs": sorted(self._shun_pairs),
            "honest_shun_events": self._honest_shuns,
            "coin_invocations": len(self._coin_outputs),
            "coin_agreed": coin_agreed,
            "coin_split": coin_split,
            "corruptions": sorted(self._corruptions),
            "recoveries": sorted(self._recoveries),
        }
