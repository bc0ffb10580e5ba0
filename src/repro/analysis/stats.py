"""Small statistics helpers for the experiment harness."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class Summary:
    """Mean / spread summary of one measured series."""

    count: int
    mean: float
    stdev: float
    minimum: float
    maximum: float

    def ci95_halfwidth(self) -> float:
        """Half-width of a normal-approximation 95% confidence interval."""
        if self.count < 2:
            return float("inf")
        return 1.96 * self.stdev / math.sqrt(self.count)

    def format(self, digits: int = 2) -> str:
        return (
            f"{self.mean:.{digits}f} ± {self.ci95_halfwidth():.{digits}f} "
            f"[{self.minimum:.{digits}f}, {self.maximum:.{digits}f}] (k={self.count})"
        )


def summarize(values: Sequence[float]) -> Summary:
    if not values:
        raise ValueError("cannot summarize an empty series")
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
    else:
        var = 0.0
    return Summary(
        count=n,
        mean=mean,
        stdev=math.sqrt(var),
        minimum=min(values),
        maximum=max(values),
    )


def proportion_ci95(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    z = 1.96
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return (max(0.0, center - half), min(1.0, center + half))

