"""Cross-process invariant verdicts for multi-OS-process runs.

The in-process :class:`~repro.net.cluster.NetCluster` shares one address
space, so the PR 6 :class:`~repro.sim.monitor.InvariantMonitor` observes
every hook live and raises *at the violating event*.  A
:mod:`repro.net.launch` run has no shared address space: each OS process
reports its observations as a JSON document (decisions with rounds, coin
outputs, optionally its input), and :class:`NetVerdict` re-checks the
same invariants over the collected reports after the fact:

* **agreement-safety** — two honest processes never decide differently
  in one instance;
* **validity** — a unanimous input map forces that decision;
* **coin-consistency** — per coin session, honest outputs either agree
  or split (a legal outcome of the paper's coin — recorded, never a
  violation), and agreement-rate tallies are reported so drivers can
  check the ε bound statistically;
* **liveness** — every process expected to decide did;
* **self-agreement** — a process relaunched from its journal never
  contradicts its own journaled decision (the restarted-node half of
  agreement-safety: amnesia would show up here first);
* **hung** — a child the parent killed for missing its heartbeat
  deadline is a recorded violation, not a silent wall-clock burn.

``check()`` also aggregates the observability counters from the per-
child ``stats`` blocks (frame errors by cause, ``auth_rejected``,
``journal_replayed``, rejoined pids) so byzantine-frame and impostor
pressure is visible in the verdict, not just survived.

``check()`` returns the verdict dict; any violation also lands in
``verdict["violations"]`` and makes :attr:`safe` False.  The shape
mirrors ``InvariantMonitor.verdict()`` where the fields overlap, so
bench/CI gates can treat both uniformly.
"""

from __future__ import annotations


class NetVerdict:
    """Accumulate per-process reports, then judge the run."""

    def __init__(self, n: int, t: int):
        self.n = n
        self.t = t
        #: pid -> report dict, as produced by ``launch``'s child processes.
        self.reports: dict[int, dict] = {}
        #: instance -> pid -> input (for the validity check).
        self._inputs: dict[object, dict[int, object]] = {}
        #: What feeding saw (duplicate reports, hung children), kept; and
        #: what the last ``check()`` judged, recomputed on every call.
        self._recorded: list[dict] = []
        self._judged: list[dict] = []

    # -- feeding -----------------------------------------------------------
    def expect_inputs(self, instance: object, inputs: dict[int, object]) -> None:
        self._inputs[str(instance)] = dict(inputs)

    def add_report(self, report: dict) -> None:
        """One process' observations::

            {"pid": 3,
             "decisions": {"aba": [value, round], ...},
             "coins": {"0": value, ...}}
        """
        pid = report["pid"]
        if pid in self.reports:
            self._violate(
                self._recorded,
                "duplicate-report",
                {"pid": pid},
                f"two reports from pid {pid}",
            )
        self.reports[pid] = report

    def mark_hung(self, pid: int) -> None:
        """Record a child killed for missing its heartbeat deadline."""
        self._violate(
            self._recorded,
            "hung",
            {"pid": pid},
            f"process {pid} stopped heartbeating and was killed",
        )

    @staticmethod
    def _violate(
        into: list[dict], kind: str, detail: dict, message: str
    ) -> None:
        into.append({"kind": kind, "message": message, "detail": detail})

    @property
    def violations(self) -> list[dict]:
        return self._recorded + self._judged

    # -- judging -----------------------------------------------------------
    def check(self, expect_all_decided: bool = True) -> dict:
        """Judge everything collected; returns the verdict dict.

        Idempotent: the reports are re-judged from scratch on every call.
        """
        judged: list[dict] = []
        decisions: dict[str, dict[int, object]] = {}
        rounds: dict[str, dict[int, int]] = {}
        for pid, report in sorted(self.reports.items()):
            for instance, entry in report.get("decisions", {}).items():
                value, r = entry[0], entry[1]
                per_pid = decisions.setdefault(instance, {})
                for other, other_value in per_pid.items():
                    if other_value != value:
                        self._violate(
                            judged,
                            "agreement-safety",
                            {
                                "instance": instance,
                                "decisions": {other: other_value, pid: value},
                            },
                            f"processes {other} and {pid} decided "
                            f"{other_value!r} vs {value!r} in {instance!r}",
                        )
                per_pid[pid] = value
                rounds.setdefault(instance, {})[pid] = r
        for pid, report in sorted(self.reports.items()):
            for instance, prior in report.get("prior_decisions", {}).items():
                current = report.get("decisions", {}).get(instance)
                if current is not None and current[0] != prior[0]:
                    self._violate(
                        judged,
                        "self-contradiction",
                        {
                            "instance": instance,
                            "pid": pid,
                            "prior": prior[0],
                            "decided": current[0],
                        },
                        f"process {pid} decided {current[0]!r} in "
                        f"{instance!r} but its journal says {prior[0]!r}",
                    )
        for instance, inputs in self._inputs.items():
            values = set(inputs.values())
            if len(inputs) == self.n and len(values) == 1:
                expected = values.pop()
                for pid, decided in decisions.get(instance, {}).items():
                    if decided != expected:
                        self._violate(
                            judged,
                            "validity",
                            {
                                "instance": instance,
                                "expected": expected,
                                "pid": pid,
                                "decided": decided,
                            },
                            f"unanimous input {expected!r} but process {pid} "
                            f"decided {decided!r} in {instance!r}",
                        )
        if expect_all_decided:
            reporters = set(self.reports)
            # Union with the expected-input instances: a run where *no*
            # process decided must still fail liveness.
            expected_instances = set(decisions) | set(self._inputs)
            for instance in sorted(expected_instances):
                per_pid = decisions.get(instance, {})
                missing = sorted(reporters - set(per_pid))
                if missing:
                    self._violate(
                        judged,
                        "liveness",
                        {"instance": instance, "missing": missing},
                        f"processes {missing} reported but did not decide "
                        f"{instance!r}",
                    )
        self._judged = judged
        coin_outputs: dict[str, dict[int, object]] = {}
        for pid, report in sorted(self.reports.items()):
            for csid, value in report.get("coins", {}).items():
                coin_outputs.setdefault(csid, {})[pid] = value
        coin_agreed = 0
        coin_split = 0
        for outputs in coin_outputs.values():
            if len(set(outputs.values())) <= 1:
                coin_agreed += 1
            else:
                coin_split += 1
        frame_errors: dict[str, int] = {}
        auth_rejected = 0
        journal_replayed = 0
        rejoined: list[int] = []
        for pid, report in sorted(self.reports.items()):
            stats = report.get("stats", {})
            for cause, count in stats.get("frame_errors", {}).items():
                frame_errors[cause] = frame_errors.get(cause, 0) + count
            auth_rejected += stats.get("auth_rejected", 0)
            journal = stats.get("journal")
            if journal:
                journal_replayed += journal.get("replayed", 0)
            if report.get("rejoined"):
                rejoined.append(pid)
        return {
            "n": self.n,
            "t": self.t,
            "processes_reporting": len(self.reports),
            "decisions": sorted(
                (instance, pid, value, rounds[instance][pid])
                for instance, per_pid in decisions.items()
                for pid, value in per_pid.items()
            ),
            "max_round": max(
                (r for per_pid in rounds.values() for r in per_pid.values()),
                default=0,
            ),
            "coin_invocations": len(coin_outputs),
            "coin_agreed": coin_agreed,
            "coin_split": coin_split,
            "frame_errors": frame_errors,
            "auth_rejected": auth_rejected,
            "journal_replayed": journal_replayed,
            "rejoined": rejoined,
            "violations": self.violations,
        }

    @property
    def safe(self) -> bool:
        return not self.violations
