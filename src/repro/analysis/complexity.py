"""Complexity-shape analysis: log-log fits for the polynomial-efficiency
claims (experiment E7).

The paper claims message/bit/round complexity polynomial in ``n``.  Given
measurements ``(n, cost)`` we fit ``cost ≈ a * n^k`` by least squares in
log-log space; a small, stable exponent ``k`` is the reproduced "shape".
Exponential growth (the Bracha/Ben-Or baselines under split inputs) shows
up instead as an exponent that grows with the window or a poor log-log fit
against a good log-linear one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class PowerFit:
    """Least-squares fit of ``cost = a * n^exponent``."""

    exponent: float
    coefficient: float
    r_squared: float

    def predict(self, n: float) -> float:
        return self.coefficient * n**self.exponent


def _linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Ordinary least squares; returns (slope, intercept, r_squared)."""
    k = len(xs)
    if k < 2:
        raise ValueError("need at least two points to fit")
    mean_x = sum(xs) / k
    mean_y = sum(ys) / k
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        raise ValueError("degenerate fit: all x equal")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r_squared


def fit_power_law(points: Sequence[tuple[float, float]]) -> PowerFit:
    """Fit ``cost = a * n^k`` through positive measurements."""
    if any(n <= 0 or c <= 0 for n, c in points):
        raise ValueError("power-law fit needs positive measurements")
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(c) for _, c in points]
    slope, intercept, r2 = _linear_fit(xs, ys)
    return PowerFit(exponent=slope, coefficient=math.exp(intercept), r_squared=r2)


@dataclass(frozen=True)
class ExponentialFit:
    """Least-squares fit of ``cost = a * base^n``."""

    base: float
    coefficient: float
    r_squared: float

    def predict(self, n: float) -> float:
        return self.coefficient * self.base**n


def fit_exponential(points: Sequence[tuple[float, float]]) -> ExponentialFit:
    """Fit ``cost = a * b^n`` through positive measurements."""
    if any(c <= 0 for _, c in points):
        raise ValueError("exponential fit needs positive measurements")
    xs = [float(n) for n, _ in points]
    ys = [math.log(c) for _, c in points]
    slope, intercept, r2 = _linear_fit(xs, ys)
    return ExponentialFit(
        base=math.exp(slope), coefficient=math.exp(intercept), r_squared=r2
    )

