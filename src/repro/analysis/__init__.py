"""Measurement analysis: statistics, complexity fits, table rendering."""

from repro.analysis.complexity import (
    ExponentialFit,
    PowerFit,
    fit_exponential,
    fit_power_law,
)
from repro.analysis.stats import Summary, proportion_ci95, summarize
from repro.analysis.tables import render_table

__all__ = [
    "ExponentialFit",
    "PowerFit",
    "Summary",
    "fit_exponential",
    "fit_power_law",
    "proportion_ci95",
    "render_table",
    "summarize",
]
