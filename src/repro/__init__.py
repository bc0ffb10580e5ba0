"""repro — reproduction of Abraham, Dolev & Halpern (PODC 2008):
*An Almost-Surely Terminating Polynomial Protocol for Asynchronous
Byzantine Agreement with Optimal Resilience*.

The package provides the full protocol stack from the paper, built from
scratch on a deterministic asynchronous-network simulator:

* ``repro.field`` / ``repro.poly`` — GF(p) on plain ints and polynomials
  kept as values (value rows and cached Lagrange bases, no polynomial
  class, one pure-Python algebra — see ``docs/ALGEBRA.md``);
* ``repro.sim`` — the discrete-event network with adversarial schedulers,
  the invariant monitor, and seeded sweeps (``repro.sim.experiments``:
  with ``monitor=True`` a sweep over adversary x scheduler cells is the
  robustness campaign);
* ``repro.broadcast`` — Weak Reliable Broadcast + Bracha Reliable Broadcast;
* ``repro.core`` — DMM, MW-SVSS, SVSS, the shunning common coin, and the
  coin-based Byzantine agreement (the paper's contribution);
* ``repro.adversary`` — byzantine behaviours and corruption control;
* ``repro.protocols`` — the Ben-Or and Canetti-Rabin baselines;
* ``repro.analysis`` — statistics and table rendering.

Quickstart::

    from repro import SystemConfig, run_byzantine_agreement

    result = run_byzantine_agreement(
        inputs=[0, 1, 1, 0],
        config=SystemConfig(n=4, seed=42),
        coin="svss",          # the paper's shunning common coin
    )
    assert result.agreed and result.terminated
"""

from repro.adversary import (
    Adversary,
    crash_adversary,
    no_adversary,
    random_adversary,
    silent_adversary,
)
from repro.config import SystemConfig, max_faults
from repro.core import (
    BOTTOM,
    AgreementResult,
    BatchAgreementResult,
    CoinResult,
    ProtocolModule,
    Stack,
    VSSResult,
    build_stack,
    flip_common_coin,
    run_byzantine_agreement,
    run_byzantine_agreement_batch,
    run_mwsvss,
    run_svss,
)
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    FieldError,
    PolynomialError,
    ProtocolError,
    ReproError,
    SimulationError,
)
from repro.protocols import cr_coin, run_benor
from repro.sim.monitor import InvariantMonitor, InvariantViolation

__version__ = "1.0.0"

__all__ = [
    "Adversary",
    "AgreementResult",
    "BOTTOM",
    "BatchAgreementResult",
    "CoinResult",
    "ConfigurationError",
    "DeadlockError",
    "FieldError",
    "InvariantMonitor",
    "InvariantViolation",
    "PolynomialError",
    "ProtocolError",
    "ProtocolModule",
    "ReproError",
    "SimulationError",
    "Stack",
    "SystemConfig",
    "VSSResult",
    "build_stack",
    "cr_coin",
    "crash_adversary",
    "flip_common_coin",
    "max_faults",
    "no_adversary",
    "random_adversary",
    "run_benor",
    "run_byzantine_agreement",
    "run_byzantine_agreement_batch",
    "run_mwsvss",
    "run_svss",
    "silent_adversary",
    "__version__",
]
