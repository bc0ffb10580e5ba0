"""Canetti–Rabin 1993 stand-in: a common coin with per-invocation failure.

The paper's §1 contrast: CR93 is optimally resilient and polynomial but
**not almost-surely terminating**, because its AVSS (built on Rabin–Ben-Or
information-checking with cut-and-choose) fails with some probability ``ε``
per invocation — and when the secret-sharing fails, the round's coin gives
the adversary full control without any detection or shunning.

Rebuilding the full ICP machinery would reproduce the *mechanism* of the
failure; the experiments only need its *distribution*.  So this module
models a CR-style coin faithfully at the failure level (a deliberate
substitution, the only one in the stack): every invocation independently fails with probability
``ε``; a failed invocation gives each process an adversarially chosen bit
(split across processes — the worst case the missing binding allows) and,
crucially, **no process ever shuns anyone**, so the failure probability
never decays.  A run of ``R`` coin rounds therefore completes with
probability at most ``(1 - ε)^R`` per round being useful, which is what
experiment E8 measures against the paper's protocol (whose bad rounds are
capped at ``t(n - t)`` by shunning).
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.core.coin import IdealCoin, IdealCoinOracle


class EpsilonCoinOracle(IdealCoinOracle):
    """Global oracle behind a CR-style ε-failure coin."""

    def __init__(self, config: SystemConfig, epsilon: float):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be a probability, got {epsilon}")
        super().__init__(
            config.derive_rng("cr-avss-coin"), agreement=1.0 - epsilon
        )
        self.epsilon = epsilon


class EpsilonAVSSCoin(IdealCoin):
    """Per-process front-end of an :class:`EpsilonCoinOracle`."""

    def __init__(self, oracle: EpsilonCoinOracle, pid: int):
        super().__init__(oracle, pid)
        self._epsilon = oracle.epsilon

    def describe(self) -> str:
        return f"CR93-AVSS-coin(eps={self._epsilon})"


def cr_coin(config: SystemConfig, epsilon: float):
    """Coin-spec factory for :func:`repro.core.api.run_byzantine_agreement`.

    Usage::

        run_byzantine_agreement(inputs, config, coin=cr_coin(config, 0.05))
    """
    oracle = EpsilonCoinOracle(config, epsilon)

    def factory(stack, pid: int) -> EpsilonAVSSCoin:
        return EpsilonAVSSCoin(oracle, pid)

    factory.oracle = oracle
    return factory
