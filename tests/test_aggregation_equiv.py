"""Packing has one off-switch, the scheduler: a committed transcript on replay.

``coalesce=`` / ``svec=`` / ``coalesce_votes=`` selected one of four
transport modes until commit ``2b354fc``; that commit was the last to have
them.  ``tests/golden/aggregation_equiv.json`` was written there *by those
keywords* under non-splitting base schedulers: every case below, in each of
the four modes, under a fixed-delay base (``fifo``), a seeded random one
(``uniform``) and a payload-sensitive one (``vote-balancing``).  This tree
has no keyword: a scheduler that advertises ``splits_envelopes`` means the
step window never buffers, one that advertises ``splits_slots`` means the
muxes never pack, and the four old modes are four wrappings of the base:

===============  ==========================  ================================
mode             keywords at ``2b354fc``     scheduler now
===============  ==========================  ================================
``plain``        ``coalesce=False,           ``SlotSplit(EnvSplit(base))``
                 svec=False``
``coalesce``     ``coalesce=True,            ``SlotSplit(base)``
                 svec=False``
``svec``         ``coalesce=False,           ``EnvSplit(base)``
                 svec=True``
``coalesce+svec``  ``coalesce=True,          ``base``
                 svec=True``
===============  ==========================  ================================

Every record must reproduce field for field — outputs or decisions, events,
wire pushes, all four packing counters, DMM verdict calls, justifier digest
— which under ``uniform`` includes the order the delays were drawn in.  The
file cannot be rewritten from this tree (the keywords raise ``TypeError``,
which the last test asserts on every entry point that had them), so a
record that stops reproducing is a finding, not a re-anchor.

One edit preceded the writing: ``VoteBalancingScheduler`` classifies
``("abav", ...)`` vote vectors (this PR's bug fix, applied to the ``2b354fc``
checkout first).  Without it the scheduler cannot see a packed batch's
votes, and the ``vote-balancing`` ``ideal-batch-k5-n7`` records of the two
``svec`` modes would hold the vanished attack (2 rounds, 2 093 events)
instead of the schedule (3 rounds, 4 466 events).  The other 70 records
come out byte-identical with and without the edit.
"""

from __future__ import annotations

import json
import random
from functools import cache
from pathlib import Path

import pytest

from repro.adversary.behaviors import SlotPoisonerBehavior
from repro.adversary.controller import Adversary, crash_recovery_adversary
from repro.adversary.schedulers import (
    EnvelopeSplittingScheduler,
    SlotSplittingScheduler,
    VoteBalancingScheduler,
)
from repro.config import SystemConfig
from repro.core.api import (
    build_stack,
    flip_common_coin,
    run_byzantine_agreement,
    run_byzantine_agreement_batch,
    run_mwsvss,
    run_svss,
)
from repro.sim.experiments import Scenario, run_scenario, scenario_matrix
from repro.sim.monitor import InvariantMonitor
from repro.sim.runtime import Runtime
from repro.sim.scheduler import FifoScheduler, UniformDelayScheduler

from test_dispatch_equiv import IDEAL, as_json, digest, split_inputs, split_matrix
from test_svec import coin_justifiers

GOLDEN = Path(__file__).parent / "golden" / "aggregation_equiv.json"
WRITTEN_AT = "2b354fc3b3b543fdb09ae686c9a90265d2d031c3"

#: mode -> (keywords that selected it at WRITTEN_AT, wrapping that selects it now).
MODES = {
    "plain": (
        {"coalesce": False, "svec": False},
        lambda base: SlotSplittingScheduler(EnvelopeSplittingScheduler(base)),
    ),
    "coalesce": ({"coalesce": True, "svec": False}, SlotSplittingScheduler),
    "svec": ({"coalesce": False, "svec": True}, EnvelopeSplittingScheduler),
    "coalesce+svec": ({"coalesce": True, "svec": True}, lambda base: base),
}

BASES = {
    "fifo": lambda config: FifoScheduler(),
    "uniform": lambda config: UniformDelayScheduler(config.derive_rng("scheduler")),
    "vote-balancing": VoteBalancingScheduler,
}

COUNTERS = (
    "events_dispatched",
    "messages_pushed",
    "envelopes_pushed",
    "payloads_coalesced",
    "svec_packed",
    "svec_slots",
    "dmm_verdict_calls",
)


def counters(result) -> dict:
    return {name: getattr(result, name) for name in COUNTERS}


# Each case takes the scheduler factory and the path keywords ({} on this
# tree); the batch entry point spelled ``coalesce=`` as ``coalesce_votes=``.


def coin(make_scheduler, seed=5, adversary=None, **path) -> dict:
    config = SystemConfig(n=4, seed=seed)
    result, stack = flip_common_coin(
        config, scheduler=make_scheduler(config), adversary=adversary, **path
    )
    record = {"outputs": result.outputs, **counters(result)}
    stack.runtime.run_to_quiescence()  # justifiers compare at quiescence only
    record["justifiers"] = digest(coin_justifiers(stack))
    return record


def slot_poisoner_coin(make_scheduler, **path) -> dict:
    adversary = Adversary({4: SlotPoisonerBehavior(random.Random(1), fixed_slot=2)})
    return coin(make_scheduler, seed=1, adversary=adversary, **path)


def agreement(make_scheduler, n, seed, coin, **path) -> dict:
    config = SystemConfig(n=n, seed=seed)
    result = run_byzantine_agreement(
        split_inputs(n), config, coin=coin, scheduler=make_scheduler(config), **path
    )
    assert result.agreed
    return {"decisions": result.decisions, "rounds": result.rounds, **counters(result)}


def svss_agreement(make_scheduler, **path) -> dict:
    return agreement(make_scheduler, 4, 7, "svss", **path)


def ideal_agreement(make_scheduler, **path) -> dict:
    return agreement(make_scheduler, 7, 11, IDEAL, **path)


def ideal_batch(make_scheduler, **path) -> dict:
    if "coalesce" in path:
        path["coalesce_votes"] = path.pop("coalesce")
    config = SystemConfig(n=7, seed=23)
    batch = run_byzantine_agreement_batch(
        split_matrix(7, 5), config, coin=IDEAL, scheduler=make_scheduler(config), **path
    )
    assert batch.agreed
    return {
        "decisions": {repr(iid): r.decisions for iid, r in batch.results.items()},
        "rounds": batch.max_rounds,
        **counters(batch),
    }


def crash_recovery_verdict(make_scheduler, **path) -> dict:
    config = SystemConfig(n=4, seed=11)
    monitor = InvariantMonitor(round_bound=200)
    result = run_byzantine_agreement(
        [0, 1, 1, 0],
        config,
        coin="svss",
        adversary=crash_recovery_adversary([2], phases=(30, 60), downtime=2.5),
        scheduler=make_scheduler(config),
        monitor=monitor,
        **path,
    )
    assert result.agreed
    verdict = monitor.verdict()
    assert verdict["recoveries"], "host 2 never crashed and recovered"
    return {"verdict": verdict, **counters(result)}


CASES = {
    "coin-n4": coin,
    "svss-agreement-n4": svss_agreement,
    "ideal-agreement-n7": ideal_agreement,
    "ideal-batch-k5-n7": ideal_batch,
    "crash-recovery-verdict": crash_recovery_verdict,
    "coin-slot-poisoner": slot_poisoner_coin,
}

RECORDS = [(mode, base, case) for mode in MODES for base in BASES for case in CASES]


@cache
def surviving(mode: str, base: str, case: str) -> dict:
    wrap = MODES[mode][1]
    return as_json(CASES[case](lambda config: wrap(BASES[base](config))))


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("mode,base,case", RECORDS)
def test_the_wrapping_reproduces_the_keyword_mode(golden, mode, base, case):
    assert surviving(mode, base, case) == golden[mode]["records"][base][case]


def test_golden_names_the_keywords_that_wrote_it(golden):
    assert golden["written_at"] == WRITTEN_AT
    for mode, (keywords, _) in MODES.items():
        assert golden[mode]["generated_by"] == keywords
        assert sorted(golden[mode]["records"]) == sorted(BASES)
        for base in BASES:
            assert sorted(golden[mode]["records"][base]) == sorted(CASES)


def test_the_modes_are_four_different_runs(golden):
    """The transcript is not four copies of one run: packing counters are
    zero exactly where the mode switched that packing off."""
    for base in BASES:
        by_mode = {mode: golden[mode]["records"][base]["coin-n4"] for mode in MODES}
        assert by_mode["plain"]["envelopes_pushed"] == by_mode["svec"]["envelopes_pushed"] == 0
        assert by_mode["plain"]["svec_packed"] == by_mode["coalesce"]["svec_packed"] == 0
        assert by_mode["coalesce"]["envelopes_pushed"] > 0 < by_mode["svec"]["svec_packed"]
        wires = {tuple(record[name] for name in COUNTERS) for record in by_mode.values()}
        assert len(wires) == 4


def test_every_entry_point_packs_by_default():
    """No scheduler named, nothing asked for: envelopes, session vectors
    and — with two or more concurrent agreements — vote vectors."""
    config = SystemConfig(n=4, seed=3)
    runtime = build_stack(config).runtime
    assert runtime.coalesce and runtime.svec
    flip, _ = flip_common_coin(config)
    solo = run_byzantine_agreement(split_inputs(4), config, coin="svss")
    batch = run_byzantine_agreement_batch(split_matrix(4, 3), config, coin="svss")
    scenario = run_scenario(Scenario(n=4, seed=3, coin="svss"))
    for result in (flip, solo, batch, scenario):
        assert result.svec_packed > 0 and result.envelopes_pushed > 0
        assert result.svec_batch_ingested > 0
    # An ideal-coin batch has no VSS layer: every vector is an ("abav", ...).
    ideal = run_byzantine_agreement_batch(split_matrix(4, 3), config, coin=IDEAL)
    assert ideal.svec_packed > 0 and ideal.svec_slots >= 2 * ideal.svec_packed
    assert run_byzantine_agreement(split_inputs(4), config, coin=IDEAL).svec_packed == 0
    for run, args in ((run_mwsvss, (1, 2, 7)), (run_svss, (1, 7))):
        _, stack = run(config, *args)
        assert stack.runtime.envelopes_pushed > 0


PACKING_COUNTERS = (
    "envelopes_pushed",
    "payloads_coalesced",
    "svec_packed",
    "svec_slots",
    "svec_batch_ingested",
)


@pytest.mark.parametrize("base", BASES)
def test_a_run_under_both_vetoes_packs_nothing(base):
    wrap = MODES["plain"][1]
    config = SystemConfig(n=4, seed=3)
    flip, _ = flip_common_coin(config, scheduler=wrap(BASES[base](config)))
    batch = run_byzantine_agreement_batch(
        split_matrix(4, 3), config, coin=IDEAL, scheduler=wrap(BASES[base](config))
    )
    for result in (flip, batch):
        assert [getattr(result, name) for name in PACKING_COUNTERS] == [0] * 5
        assert result.dmm_verdicts_batched == 0
        assert result.messages_pushed == result.logical_messages


@pytest.mark.parametrize("keyword", ["coalesce", "svec", "coalesce_votes", "modes"])
def test_the_keywords_cannot_be_passed(keyword):
    """No entry point takes a packing keyword, so nothing can select — or
    silently fail to select — a mode except through the scheduler."""
    from repro.sim.window import StepWindow

    config = SystemConfig(n=4, seed=0)
    calls = [
        lambda **kw: StepWindow(**kw),
        lambda **kw: Runtime(config, **kw),
        lambda **kw: build_stack(config, **kw),
        lambda **kw: run_byzantine_agreement([0, 1, 1, 0], config, coin=IDEAL, **kw),
        lambda **kw: run_byzantine_agreement_batch([[0, 1, 1, 0]], config, coin=IDEAL, **kw),
        lambda **kw: flip_common_coin(config, **kw),
        lambda **kw: Scenario(n=4, seed=0, **kw),
        lambda **kw: scenario_matrix(ns=(4,), seeds=range(1), **kw),
    ]
    value = ("plain",) if keyword == "modes" else True
    for call in calls:
        with pytest.raises(TypeError, match=keyword):
            call(**{keyword: value})
    with pytest.raises(TypeError, match="split_envelopes"):
        StepWindow(split_envelopes=True)


if __name__ == "__main__":
    # Provenance: this ran once, in a checkout of WRITTEN_AT with this
    # module and the VoteBalancingScheduler fix copied in.  The keywords
    # below no longer exist, so on any later tree it stops at the first
    # TypeError.
    document = {"written_at": WRITTEN_AT}
    for mode, (keywords, _) in MODES.items():
        document[mode] = {
            "generated_by": keywords,
            "records": {
                base: {case: CASES[case](BASES[base], **keywords) for case in CASES}
                for base in BASES
            },
        }
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(as_json(document), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
