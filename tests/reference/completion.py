"""The agreement runners' completion rule, re-scanned from scratch: the
seed driver's predicate, which walked every process of every instance at
each evaluation.  ``AgreementDriver.finished`` counts instead (one
undecided-target count per instance, one set of overflowed pids);
``tests/test_driver.py`` holds it to this at every evaluation.  No import
from ``repro``."""


def instance_done(decisions, processes, targets, max_rounds):
    """Every target decided, or some target is past ``max_rounds``."""
    if all(pid in decisions for pid in targets):
        return True
    return any(processes[pid].round > max_rounds for pid in targets)


def finished(decisions, processes, targets, max_rounds):
    """``decisions`` / ``processes``: instance -> pid -> decision / module."""
    return all(
        instance_done(decisions[iid], processes[iid], targets, max_rounds)
        for iid in decisions
    )
