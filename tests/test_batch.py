"""Batched agreement: K concurrent instances multiplexed on one runtime.

The load-bearing property is *determinism*: under a fixed-delay scheduler a
failure-free batch is an order-preserving interleaving of its instances'
solo event streams, and the shared round coin replays the same sessions a
default-tag solo run uses — so every instance must decide exactly what its
sequential solo stack decides, per seed.  The
adversarial tests then cross instances with crash/byzantine behaviours and
assert the per-instance agreement properties survive the interleaving.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.behaviors import (
    ABALiarBehavior,
    CrashBehavior,
    MutatingBehavior,
    SilentBehavior,
)
from repro.adversary.controller import Adversary
from repro.config import SystemConfig
from repro.core.api import (
    run_byzantine_agreement,
    run_byzantine_agreement_batch,
)
from repro.errors import ConfigurationError
from repro.sim.monitor import InvariantMonitor
from repro.sim.scheduler import FifoScheduler, Scheduler

IDEAL = ("ideal", 1.0)


def split_matrix(n: int, k: int) -> list[list[int]]:
    """K rows of rotated split inputs (every instance differs)."""
    return [[(i + shift) % 2 for i in range(n)] for shift in range(k)]


def run_batch(inputs, seed, coin, **kw):
    return run_byzantine_agreement_batch(
        inputs,
        SystemConfig(n=len(inputs[0]), seed=seed),
        coin=coin,
        scheduler=FifoScheduler(),
        **kw,
    )


def run_solo(inputs, seed, coin):
    return run_byzantine_agreement(
        inputs,
        SystemConfig(n=len(inputs), seed=seed),
        coin=coin,
        scheduler=FifoScheduler(),
    )


class TestBatchMatchesSolo:
    """The acceptance property: K batched instances decide identically to
    K sequential solo stacks, per seed."""

    def test_k16_n7_ideal(self):
        inputs = split_matrix(7, 16)
        batch = run_batch(inputs, seed=11, coin=IDEAL)
        assert batch.agreed and batch.terminated
        for k in range(16):
            solo = run_solo(inputs[k], seed=11, coin=IDEAL)
            assert batch.results[("aba", k)].decisions == solo.decisions, k
            assert batch.results[("aba", k)].rounds == solo.rounds, k

    @pytest.mark.parametrize("seed", range(4))
    def test_disagreeing_coin(self, seed):
        """A coin that fails 30% of invocations stretches instances across
        different round counts; per-instance decisions still match solo."""
        inputs = split_matrix(7, 6)
        batch = run_batch(inputs, seed=seed, coin=("ideal", 0.7))
        assert batch.agreed
        for k in range(6):
            solo = run_solo(inputs[k], seed=seed, coin=("ideal", 0.7))
            assert batch.results[("aba", k)].decisions == solo.decisions, k

    def test_local_coin(self):
        inputs = split_matrix(7, 4)
        batch = run_batch(inputs, seed=5, coin="local", max_rounds=500)
        assert batch.agreed
        for k in range(4):
            solo = run_solo(inputs[k], seed=5, coin="local")
            assert batch.results[("aba", k)].decisions == solo.decisions, k

    def test_batch_replay_deterministic(self):
        inputs = split_matrix(7, 4)
        a = run_batch(inputs, seed=77, coin=IDEAL)
        b = run_batch(inputs, seed=77, coin=IDEAL)
        assert a.decisions == b.decisions
        assert a.events_dispatched == b.events_dispatched
        assert a.sim_time == b.sim_time


@pytest.mark.slow
class TestBatchMatchesSoloFullStack:
    def test_svss_shared_coin_matches_solo(self):
        """The full SVSS shunning coin, shared per round across the batch,
        replays each solo run's coin sessions bit-for-bit."""
        inputs = split_matrix(4, 3)
        batch = run_batch(inputs, seed=3, coin="svss")
        assert batch.agreed
        for k in range(3):
            solo = run_solo(inputs[k], seed=3, coin="svss")
            assert batch.results[("aba", k)].decisions == solo.decisions, k

    def test_svss_batch_amortizes_coin_events(self):
        """The batching lever: K instances on one shared round coin cost
        far fewer events than K sequential solo stacks."""
        inputs = split_matrix(4, 3)
        batch = run_batch(inputs, seed=3, coin="svss")
        solo_events = sum(
            run_solo(inputs[k], seed=3, coin="svss").events_dispatched
            for k in range(3)
        )
        # The coin dominates a solo run; sharing it should keep the batch
        # within ~1.5x of ONE solo run, i.e. well under half of three.
        assert batch.events_dispatched < solo_events / 2


class TestBatchUnderAdversaries:
    """Interleaving tests: faults span every instance of the batch."""

    @pytest.mark.parametrize("seed", range(4))
    def test_crash_spanning_instances(self, seed):
        inputs = split_matrix(7, 4)
        adversary = Adversary({7: CrashBehavior(after_messages=40)})
        batch = run_byzantine_agreement_batch(
            inputs,
            SystemConfig(n=7, seed=seed),
            coin=IDEAL,
            adversary=adversary,
        )
        assert batch.terminated and batch.agreed

    @pytest.mark.parametrize("seed", range(4))
    def test_liar_and_silent_spanning_instances(self, seed):
        inputs = split_matrix(7, 4)
        adversary = Adversary(
            {3: ABALiarBehavior(random.Random(seed)), 6: SilentBehavior()}
        )
        batch = run_byzantine_agreement_batch(
            inputs,
            SystemConfig(n=7, seed=seed),
            coin=IDEAL,
            adversary=adversary,
        )
        assert batch.terminated and batch.agreed

    @pytest.mark.parametrize("seed", range(3))
    def test_mutator_spanning_instances(self, seed):
        inputs = split_matrix(4, 4)
        adversary = Adversary({4: MutatingBehavior(random.Random(seed), rate=0.4)})
        batch = run_byzantine_agreement_batch(
            inputs,
            SystemConfig(n=4, seed=seed),
            coin=IDEAL,
            adversary=adversary,
        )
        assert batch.terminated and batch.agreed

    def test_validity_per_instance_under_liar(self):
        """Unanimous instances must decide their input even while other
        instances of the same batch are split."""
        n = 4
        inputs = [[1] * n, [0] * n, [0, 1, 0, 1], [1] * n]
        adversary = Adversary({2: ABALiarBehavior(random.Random(1))})
        batch = run_byzantine_agreement_batch(
            inputs, SystemConfig(n=n, seed=2), coin=IDEAL, adversary=adversary
        )
        assert batch.agreed
        assert batch.results[("aba", 0)].decision == 1
        assert batch.results[("aba", 1)].decision == 0
        assert batch.results[("aba", 3)].decision == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_random_delays(self, seed):
        """Arbitrary (seeded) delivery interleavings across instances: the
        solo-match guarantee needs fixed delays, agreement never does."""
        cfg = SystemConfig(n=7, seed=seed)
        batch = run_byzantine_agreement_batch(
            split_matrix(7, 5), cfg, coin=IDEAL, scheduler=None
        )
        assert batch.terminated and batch.agreed


class TestBatchInterface:
    def test_empty_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            run_byzantine_agreement_batch([], SystemConfig(n=4, seed=0), coin=IDEAL)

    def test_wrong_row_length_rejected(self):
        with pytest.raises(ConfigurationError):
            run_byzantine_agreement_batch(
                [[1, 1]], SystemConfig(n=4, seed=0), coin=IDEAL
            )

    def test_result_shape(self):
        inputs = split_matrix(4, 3)
        batch = run_batch(inputs, seed=1, coin=IDEAL)
        assert len(batch) == 3
        assert batch.instance_ids == (("aba", 0), ("aba", 1), ("aba", 2))
        assert set(batch.decisions) == set(batch.instance_ids)
        assert batch.decided_instances == 3
        assert batch.result(("aba", 1)).agreed
        assert batch.events_dispatched > 0 and batch.messages_pushed > 0

    def test_dict_rows_accepted(self):
        batch = run_byzantine_agreement_batch(
            [{1: 1, 2: 1, 3: 1, 4: 1}, [0, 0, 0, 0]],
            SystemConfig(n=4, seed=0),
            coin=IDEAL,
        )
        assert batch.decisions == {("aba", 0): 1, ("aba", 1): 0}

    def test_the_stack_holds_no_coins_or_agreements(self):
        """A stack keeps only what ``build_stack`` builds: the coins and
        agreement processes belong to the driver that made them."""
        from dataclasses import fields

        from repro.core.api import Stack, build_stack

        names = {f.name for f in fields(Stack)}
        assert names == {"config", "runtime", "broadcasts", "vss", "adversary"}
        stack = build_stack(SystemConfig(n=4, seed=0))
        assert not hasattr(stack, "agreement")

    def test_k1_batch_equals_solo(self):
        """A batch of one is exactly the single-agreement run."""
        inputs = [[0, 1, 0, 1, 0, 1, 0]]
        batch = run_batch(inputs, seed=6, coin=IDEAL)
        solo = run_solo(inputs[0], seed=6, coin=IDEAL)
        assert batch.results[("aba", 0)].decisions == solo.decisions
        assert batch.events_dispatched == solo.events_dispatched
        assert batch.messages_pushed == solo.messages_pushed

    def test_k1_batch_equals_solo_full_stack_under_the_monitor(self):
        """Same on the paper's coin with every invariant armed: the K=1
        batch rides the coin sessions of a default-tag solo run, so the
        monitor sees the same run and every counter agrees."""
        inputs = [0, 1, 1, 0]
        config = SystemConfig(n=4, seed=3)
        watch_batch, watch_solo = InvariantMonitor(), InvariantMonitor()
        batch = run_byzantine_agreement_batch(
            [inputs], config, scheduler=FifoScheduler(), monitor=watch_batch
        )
        solo = run_byzantine_agreement(
            inputs, config, scheduler=FifoScheduler(), monitor=watch_solo
        )
        assert batch.agreed and solo.agreed
        assert batch.results[("aba", 0)].decisions == solo.decisions
        assert batch.results[("aba", 0)].rounds == solo.rounds

        def without_instance_ids(verdict):
            verdict = dict(verdict)
            verdict["decisions"] = [d[1:] for d in verdict["decisions"]]
            return verdict

        assert without_instance_ids(watch_batch.verdict()) == without_instance_ids(
            watch_solo.verdict()
        )
        assert batch.counters() == solo.counters()
