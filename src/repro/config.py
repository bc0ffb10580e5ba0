"""System configuration shared by every protocol in the stack."""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from random import Random

from repro.errors import ConfigurationError
from repro.field.gf import Field
from repro.field.primes import default_prime


def max_faults(n: int) -> int:
    """Optimal-resilience fault bound: the largest ``t`` with ``n > 3t``."""
    return (n - 1) // 3


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of one simulated system.

    Attributes
    ----------
    n:
        Number of processes; process ids are ``1..n`` (matching the paper's
        evaluation points — 0 is reserved for the secret).
    t:
        Fault bound.  Defaults to the optimal ``(n - 1) // 3``.
    prime:
        Field modulus.  Must exceed ``n`` (paper §3.2 requires ``|F| > n``).
        Defaults to the smallest prime above ``max(n, 250)`` (``default_prime``).
    seed:
        Master seed; every random stream in a run is derived from it, so a
        run is fully reproducible from its config.
    """

    n: int
    t: int = -1  # -1 means "derive the optimal bound"
    prime: int = -1  # -1 means "derive from n"
    seed: int = 0
    _field: Field = dataclass_field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"need at least one process, got n={self.n}")
        if self.t == -1:
            object.__setattr__(self, "t", max_faults(self.n))
        if self.t < 0:
            raise ConfigurationError(f"fault bound must be >= 0, got t={self.t}")
        if self.prime == -1:
            object.__setattr__(self, "prime", default_prime(self.n))
        if self.prime <= self.n:
            raise ConfigurationError(
                f"field must satisfy |F| > n: prime={self.prime}, n={self.n}"
            )
        object.__setattr__(self, "_field", Field(self.prime))

    @property
    def field(self) -> Field:
        return self._field

    @property
    def pids(self) -> range:
        """All process ids, ``1..n``."""
        return range(1, self.n + 1)

    def require_optimal_resilience(self) -> None:
        """Raise unless ``n > 3t`` (precondition of the paper's protocols)."""
        if self.n <= 3 * self.t:
            raise ConfigurationError(
                f"protocol requires n > 3t, got n={self.n}, t={self.t}"
            )

    def require_resilience(self, factor: int) -> None:
        """Raise unless ``n > factor * t`` (e.g. Ben-Or needs factor 5)."""
        if self.n <= factor * self.t:
            raise ConfigurationError(
                f"protocol requires n > {factor}t, got n={self.n}, t={self.t}"
            )

    def derive_rng(self, *tags: object) -> Random:
        """A named deterministic random stream.

        Separate protocol roles draw from separate streams so that adding a
        consumer never perturbs unrelated randomness (important when
        comparing runs that differ only in the adversary).
        """
        return Random(f"{self.seed}:{tags!r}")
