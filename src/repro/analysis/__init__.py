"""Measurement analysis: statistics and table rendering."""

from repro.analysis.stats import Summary, proportion_ci95, summarize
from repro.analysis.tables import render_table

__all__ = [
    "Summary",
    "proportion_ci95",
    "render_table",
    "summarize",
]
