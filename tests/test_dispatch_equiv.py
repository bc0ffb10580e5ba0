"""The dispatch references: ``Runtime.step()`` live, a committed transcript on replay.

One engine dispatches events and one path ingests slot-vectors, so neither
has a switch to A/B against.  Two references pin them instead:

* **Living** — ``Runtime.step()`` pops through the queue's own ``pop()``,
  routes through ``ProcessHost.deliver`` and opens and closes the step
  window per event; the hot loop behind ``run_until`` /
  ``run_to_quiescence`` inlines all of that over the same live handler
  tables.  The first half of this module drives a full SVSS coin and an
  ideal-coin agreement event by event through ``step()`` and through the
  hot loop, on the calendar queue and on the heap, and requires the same
  run.
* **Committed** — ``tests/golden/dispatch_equiv.json`` was written at
  commit ``b4364b3`` *by the paths that commit was the last to have*: the
  seed dispatch core (``engine="legacy"``: heap pop, ``ProcessHost.deliver``
  routing and one predicate poll per event) and per-slot vector ingestion
  (``batch_ingest=False``: ``n`` ``VSSManager._ingest`` chains per received
  vector).  Every comparison the suite used to make live against one of
  them — ``flat == legacy``, ``batch_ingest on == off`` — is one record
  here, and the surviving path must reproduce it.  Each section's
  ``generated_by`` names the keyword arguments that selected the deleted
  path; ``SECTIONS`` below repeats them.  The file cannot be rewritten
  from this tree (those keywords raise ``TypeError`` now, which the last
  test asserts), so a record that stops reproducing is a finding, not a
  re-anchor.

The records were also written under ``coalesce=`` / ``svec=`` /
``coalesce_votes=`` — mostly their ``False`` defaults — which are gone too:
packing is switched off by the scheduler and by nothing else.  Each case
names the wrapping of its scheduler that *is* the mode it was written in
(``per_message`` for the default-argument runs, random delays included;
``SlotSplittingScheduler`` alone for ``coalesce=True``,
``EnvelopeSplittingScheduler`` alone for ``svec=True``, the bare scheduler
for both; ``tests/test_aggregation_equiv.py`` holds the proof of the
mapping), and the file is byte-identical to what ``b4364b3`` wrote.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import cache, partial
from pathlib import Path

import pytest

from repro.adversary.adaptive import AdaptiveAdversary
from repro.adversary.behaviors import SlotPoisonerBehavior
from repro.adversary.controller import Adversary, crash_recovery_adversary
from repro.adversary.schedulers import (
    EnvelopeSplittingScheduler,
    SlotSplittingScheduler,
    per_message,
)
from repro.config import SystemConfig
from repro.core.agreement import ABAProcess
from repro.core.api import (
    build_stack,
    flip_common_coin,
    make_coins,
    run_byzantine_agreement,
    run_byzantine_agreement_batch,
    run_mwsvss,
    run_svss,
)
from repro.sim.events import BucketQueue, EventQueue
from repro.sim.experiments import SCHEDULERS, Scenario
from repro.sim.monitor import InvariantMonitor
from repro.sim.runtime import Runtime
from repro.sim.scheduler import FifoScheduler, UniformDelayScheduler

from test_svec import coin_justifiers

GOLDEN = Path(__file__).parent / "golden" / "dispatch_equiv.json"
WRITTEN_AT = "b4364b3527ba509f8487e844664b98bdbb100123"
IDEAL = ("ideal", 1.0)


def split_inputs(n: int) -> list[int]:
    return [i % 2 for i in range(n)]


def split_matrix(n: int, k: int) -> list[list[int]]:
    return [[(i + shift) % 2 for i in range(n)] for shift in range(k)]


def digest(value: object) -> str:
    """sha256 over a canonical form (sets and dicts sorted): justifier state
    is sets of pids and pid-keyed dicts, too bulky to commit verbatim."""

    def canonical(node):
        if isinstance(node, dict):
            return sorted(([canonical(k), canonical(v)] for k, v in node.items()), key=repr)
        if isinstance(node, (set, frozenset)):
            return sorted((canonical(item) for item in node), key=repr)
        if isinstance(node, (tuple, list)):
            return [canonical(item) for item in node]
        return node

    return hashlib.sha256(json.dumps(canonical(value), default=repr).encode()).hexdigest()


def as_json(record: dict) -> dict:
    """Normalise through JSON (tuples → lists, int keys → strings)."""
    return json.loads(json.dumps(record))


# ---------------------------------------------------------------------------
# The living reference: step() == the hot loop
# ---------------------------------------------------------------------------

SCHEDULER_BRANCHES = {
    "calendar": (lambda seed: FifoScheduler(), BucketQueue),
    "heap": (lambda seed: UniformDelayScheduler(random.Random(seed)), EventQueue),
}


def by_step(runtime: Runtime, done=None) -> None:
    """The reference loop: one ``step()`` and one poll per event."""
    while not (done is not None and done()):
        if not runtime.step():
            assert done is None, "queue drained before the awaited condition"
            return


def by_hot_loop(runtime: Runtime, done=None) -> None:
    if done is None:
        runtime.run_to_quiescence()
    else:
        runtime.run_until(done)


def wire_counts(runtime: Runtime) -> dict:
    return {
        "now": runtime.now,
        "events_dispatched": runtime.events_dispatched,
        "pushed_total": runtime.queue.pushed_total,
        "envelopes_pushed": runtime.envelopes_pushed,
        "payloads_coalesced": runtime.payloads_coalesced,
        "svec_packed": runtime.svec_packed,
        "svec_slots": runtime.svec_slots,
        "dmm_verdict_calls": runtime.dmm_verdict_calls,
        "in_flight": len(runtime.queue),
    }


def driven_coin(drive, make_scheduler, queue_type) -> dict:
    """One fault-free n=4 SVSS coin, to quiescence."""
    stack = build_stack(SystemConfig(n=4, seed=5), scheduler=make_scheduler(5))
    runtime = stack.runtime
    assert type(runtime.queue) is queue_type
    coins = make_coins(stack, "svss")
    csid = ("cc", "solo", 0)
    outputs: dict[int, int] = {}
    with runtime.coalescing_step():
        for pid in stack.config.pids:
            coins[pid].join(csid)
            coins[pid].get(csid, lambda v, pid=pid: outputs.setdefault(pid, v))
            coins[pid].release(csid)
    drive(runtime)
    assert set(outputs) == set(stack.config.pids)
    return {
        "outputs": outputs,
        "justifiers": coin_justifiers(stack),
        **wire_counts(runtime),
    }


def driven_agreement(drive, make_scheduler, queue_type) -> list[dict]:
    """One n=7 ideal-coin agreement: observed when the last process decides
    (the predicate-polling exit) and again at quiescence."""
    config = SystemConfig(n=7, seed=11)
    stack = build_stack(config, scheduler=make_scheduler(11), with_vss=False)
    runtime = stack.runtime
    assert type(runtime.queue) is queue_type
    coins = make_coins(stack, IDEAL)
    decisions: dict[int, int] = {}
    processes = {
        pid: ABAProcess(
            runtime.host(pid),
            stack.broadcasts[pid],
            coins[pid],
            instance_id="aba",
            on_decide=lambda v, pid=pid: decisions.setdefault(pid, v),
        )
        for pid in config.pids
    }
    with runtime.coalescing_step():
        for pid, bit in zip(config.pids, split_inputs(config.n)):
            processes[pid].start(bit)

    def observed() -> dict:
        return {
            "decisions": dict(decisions),
            "rounds": {pid: proc.rounds_used for pid, proc in processes.items()},
            **wire_counts(runtime),
        }

    drive(runtime, lambda: len(decisions) == config.n)
    at_decision = observed()
    assert len(set(decisions.values())) == 1
    drive(runtime)
    return [at_decision, observed()]


@pytest.mark.parametrize("branch", SCHEDULER_BRANCHES)
@pytest.mark.parametrize("driven", [driven_coin, driven_agreement])
def test_hot_loop_equals_step_event_by_event(driven, branch):
    reference = driven(by_step, *SCHEDULER_BRANCHES[branch])
    assert driven(by_hot_loop, *SCHEDULER_BRANCHES[branch]) == reference


def test_waits_are_notification_driven():
    """``on_change=True`` re-evaluates the predicate per announced state
    change, an order of magnitude rarer than deliveries; the per-event
    reference (:func:`by_step`) polls once per event."""
    result = run_byzantine_agreement(
        split_inputs(7), SystemConfig(n=7, seed=11), coin=IDEAL, scheduler=FifoScheduler()
    )
    assert result.agreed
    assert result.predicate_evals <= result.events_dispatched / 5


# ---------------------------------------------------------------------------
# The committed reference: records written by the deleted paths
# ---------------------------------------------------------------------------


def agreement_triple(result) -> dict:
    return {
        "decisions": result.decisions,
        "events_dispatched": result.events_dispatched,
        "messages_pushed": result.messages_pushed,
    }


def solo_agreement(n, seed, coin, scheduler="fifo", wrap=per_message, **kw) -> dict:
    config = SystemConfig(n=n, seed=seed)
    result = run_byzantine_agreement(
        split_inputs(n), config, coin=coin, scheduler=wrap(SCHEDULERS[scheduler](config)), **kw
    )
    assert result.terminated and result.agreed
    return {
        **agreement_triple(result),
        "rounds": result.rounds,
        "envelopes_pushed": result.envelopes_pushed,
        "payloads_coalesced": result.payloads_coalesced,
    }


def batch_agreement(seed, wrap=per_message, **kw) -> dict:
    batch = run_byzantine_agreement_batch(
        split_matrix(7, 5),
        SystemConfig(n=7, seed=seed),
        coin=IDEAL,
        scheduler=wrap(FifoScheduler()),
        **kw,
    )
    assert batch.agreed
    return {
        "decisions": {repr(iid): r.decisions for iid, r in batch.results.items()},
        "events_dispatched": batch.events_dispatched,
        "messages_pushed": batch.messages_pushed,
        "envelopes_pushed": batch.envelopes_pushed,
    }


def coin_flip(seed, quiesce=True, adversary=None, wrap=EnvelopeSplittingScheduler, **kw) -> dict:
    result, stack = flip_common_coin(
        SystemConfig(n=4, seed=seed),
        scheduler=wrap(FifoScheduler()),
        adversary=adversary() if adversary else None,
        **kw,
    )
    if quiesce:
        stack.runtime.run_to_quiescence()
    return {
        "outputs": result.outputs,
        # As counted when every output landed, before the drain.
        "events_dispatched": result.events_dispatched,
        "messages_pushed": result.messages_pushed,
        "envelopes_pushed": result.envelopes_pushed,
        "payloads_coalesced": result.payloads_coalesced,
        "svec_packed": result.svec_packed,
        "svec_slots": result.svec_slots,
        "justifiers": digest(coin_justifiers(stack)),
    }


def slot_poisoner() -> Adversary:
    return Adversary({4: SlotPoisonerBehavior(random.Random(1), fixed_slot=2)})


def crash_recovery_verdict(**kw) -> dict:
    monitor = InvariantMonitor(round_bound=200)
    config = SystemConfig(n=4, seed=11)
    result = run_byzantine_agreement(
        [0, 1, 1, 0],
        config,
        coin="svss",
        adversary=crash_recovery_adversary([2], phases=(30, 60), downtime=25.0),
        scheduler=SCHEDULERS["per-message"](config),  # the default's delays, per message
        max_rounds=200,
        monitor=monitor,
        **kw,
    )
    assert result.agreed
    verdict = monitor.verdict()
    assert verdict["recoveries"], "host 2 never crashed and recovered"
    return verdict


def adaptive_strike(**kw) -> dict:
    config = SystemConfig(n=4, seed=5)
    adversary = AdaptiveAdversary(config, 7, warmup=40)
    result = run_byzantine_agreement(
        [1, 0, 1, 0], config, adversary=adversary, scheduler=SCHEDULERS["per-message"](config), **kw
    )
    assert result.agreed and adversary.victims
    return {
        "victims": adversary.victims,
        "struck_at": adversary.struck_at,
        "spec": adversary.spec,
    }


#: The scheduler registry as it stood at WRITTEN_AT (it has grown since).
WRITTEN_SCHEDULERS = (
    "eclipse",
    "env-split",
    "exponential",
    "fifo",
    "partition",
    "slot-split",
    "targeted",
    "uniform",
    "unit",
    "vote-balancing",
)

#: case -> the run whose record is committed; each takes the path keywords.
CASES = {
    **{
        f"ideal-n7-{scheduler}": partial(solo_agreement, 7, 11, IDEAL, scheduler)
        for scheduler in WRITTEN_SCHEDULERS
    },
    "svss-n4": partial(solo_agreement, 4, 11, "svss"),
    "svss-n4-coalesced": partial(solo_agreement, 4, 7, "svss", wrap=SlotSplittingScheduler),
    "batch-k5": partial(batch_agreement, 23),
    "batch-k5-coalesced": partial(batch_agreement, 23, wrap=SlotSplittingScheduler),
    "coin-svec-coalesced": partial(coin_flip, 5, quiesce=False, wrap=lambda base: base),
    "crash-recovery-verdict": crash_recovery_verdict,
    "adaptive-strike": adaptive_strike,
    **{f"coin-seed{seed}": partial(coin_flip, seed) for seed in range(3)},
    "coin-slot-poisoner": partial(coin_flip, 1, adversary=slot_poisoner),
    "svss-n4-svec": partial(solo_agreement, 4, 7, "svss", wrap=EnvelopeSplittingScheduler),
}

INGEST_CASES = [f"coin-seed{seed}" for seed in range(3)] + ["coin-slot-poisoner"]

#: section -> (keywords that selected the deleted path at WRITTEN_AT, cases).
SECTIONS = {
    "engine": (
        {"engine": "legacy"},
        [case for case in CASES if case not in INGEST_CASES and case != "svss-n4-svec"],
    ),
    "ingest": ({"batch_ingest": False}, INGEST_CASES + ["svss-n4-svec"]),
    "engine+ingest": ({"engine": "legacy", "batch_ingest": False}, INGEST_CASES),
}


@cache
def surviving(case: str) -> dict:
    return as_json(CASES[case]())


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize(
    "section,case",
    [(section, case) for section, (_, cases) in SECTIONS.items() for case in cases],
)
def test_reproduces_the_record(golden, section, case):
    assert surviving(case) == golden[section]["records"][case]


def test_golden_names_the_paths_that_wrote_it(golden):
    assert golden["written_at"] == WRITTEN_AT
    for section, (path, cases) in SECTIONS.items():
        assert golden[section]["generated_by"] == path
        assert sorted(golden[section]["records"]) == sorted(cases)


@pytest.mark.parametrize("keyword", ["engine", "batch_ingest"])
def test_the_deleted_paths_cannot_be_selected(keyword):
    """Both options are gone from every entry point, so nothing can run —
    or silently fail to run — the paths the golden records came from."""
    config = SystemConfig(n=4, seed=0)
    value = {"engine": "flat", "batch_ingest": True}[keyword]
    calls = [
        lambda **kw: Runtime(config, **kw),
        lambda **kw: build_stack(config, **kw),
        lambda **kw: run_byzantine_agreement([0, 1, 1, 0], config, coin=IDEAL, **kw),
        lambda **kw: run_byzantine_agreement_batch([[0, 1, 1, 0]], config, coin=IDEAL, **kw),
        lambda **kw: run_mwsvss(config, 1, 2, 7, **kw),
        lambda **kw: run_svss(config, 1, 7, **kw),
        lambda **kw: flip_common_coin(config, **kw),
        lambda **kw: Scenario(n=4, seed=0, **kw),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=keyword):
            call(**{keyword: value})


if __name__ == "__main__":
    # Provenance: this ran once, at WRITTEN_AT, and still does in a checkout
    # of that commit (copy this module in; the living half needs nothing
    # newer).  The path keywords below no longer exist, so on any later tree
    # it stops at the first TypeError.
    document = {"written_at": WRITTEN_AT}
    for section, (path, cases) in SECTIONS.items():
        document[section] = {
            "generated_by": path,
            "records": {case: CASES[case](**path) for case in cases},
        }
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(as_json(document), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
