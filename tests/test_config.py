"""Tests for system configuration and resilience validation."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig, max_faults
from repro.errors import ConfigurationError
from repro.net.launch import _build_parser


class TestMaxFaults:
    def test_optimal_bound(self):
        assert max_faults(4) == 1
        assert max_faults(6) == 1
        assert max_faults(7) == 2
        assert max_faults(10) == 3
        assert max_faults(3) == 0


class TestSystemConfig:
    def test_default_t_is_optimal(self):
        assert SystemConfig(n=4).t == 1
        assert SystemConfig(n=10).t == 3

    def test_explicit_t(self):
        assert SystemConfig(n=10, t=1).t == 1

    def test_pids_are_one_based(self):
        assert list(SystemConfig(n=4).pids) == [1, 2, 3, 4]

    def test_rejects_zero_processes(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(n=0)

    def test_rejects_negative_t(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(n=4, t=-2)

    def test_rejects_small_field(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(n=13, prime=13)
        with pytest.raises(ConfigurationError):
            SystemConfig(n=4, prime=3)

    def test_small_field_allowed_if_larger_than_n(self):
        cfg = SystemConfig(n=12, prime=13)
        assert cfg.field.prime == 13
        assert SystemConfig(n=4, prime=2**31 - 1).field.prime == 2**31 - 1

    @pytest.mark.parametrize("n,prime", [(1, 251), (4, 251), (250, 251), (251, 257)])
    def test_default_prime_is_the_smallest_above_max_n_250(self, n, prime):
        assert SystemConfig(n=n).prime == prime
        assert SystemConfig(n=n).field.prime == prime

    @pytest.mark.parametrize("n", [4, 7])
    def test_launch_child_resolves_the_parents_prime(self, n):
        """A ``launch.py`` child gets ``--n``, ``--t`` and ``--seed``, no
        prime, and derives the parent's field from them."""
        parent = SystemConfig(n=n, seed=9)
        args = _build_parser().parse_args(
            ["--pid", "1", "--n", str(n), "--t", str(parent.t), "--seed", "9"]
        )
        assert SystemConfig(n=args.n, t=args.t, seed=args.seed) == parent

    def test_require_optimal_resilience(self):
        SystemConfig(n=4, t=1).require_optimal_resilience()
        with pytest.raises(ConfigurationError):
            SystemConfig(n=6, t=2).require_optimal_resilience()

    def test_require_resilience_factor(self):
        SystemConfig(n=6, t=1).require_resilience(5)
        with pytest.raises(ConfigurationError):
            SystemConfig(n=5, t=1).require_resilience(5)

    def test_frozen(self):
        cfg = SystemConfig(n=4)
        with pytest.raises(Exception):
            cfg.n = 5


class TestDeriveRng:
    def test_same_tags_same_stream(self):
        cfg = SystemConfig(n=4, seed=9)
        assert cfg.derive_rng("x", 1).random() == cfg.derive_rng("x", 1).random()

    def test_different_tags_differ(self):
        cfg = SystemConfig(n=4, seed=9)
        assert cfg.derive_rng("x").random() != cfg.derive_rng("y").random()

    def test_different_seeds_differ(self):
        a = SystemConfig(n=4, seed=1).derive_rng("x").random()
        b = SystemConfig(n=4, seed=2).derive_rng("x").random()
        assert a != b
