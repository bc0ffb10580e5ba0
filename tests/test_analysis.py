"""Tests for the analysis helpers (stats, tables)."""

from __future__ import annotations

import random

import pytest

from repro.analysis.stats import proportion_ci95, summarize
from repro.analysis.tables import render_table


class TestSummary:
    def test_basic_stats(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == 2.0
        assert s.minimum == 1.0 and s.maximum == 3.0
        assert s.count == 3
        assert abs(s.stdev - 1.0) < 1e-9

    def test_single_value(self):
        s = summarize([5.0])
        assert s.stdev == 0.0
        assert s.ci95_halfwidth() == float("inf")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_format_contains_mean(self):
        assert "2.00" in summarize([1.0, 2.0, 3.0]).format()

    def test_ci_shrinks_with_samples(self):
        rng = random.Random(0)
        small = summarize([rng.random() for _ in range(10)])
        large = summarize([rng.random() for _ in range(1000)])
        assert large.ci95_halfwidth() < small.ci95_halfwidth()


class TestProportionCI:
    def test_extremes(self):
        low, high = proportion_ci95(0, 100)
        assert low == 0.0 and high < 0.1
        low, high = proportion_ci95(100, 100)
        assert low > 0.9 and high > 0.99

    def test_zero_trials(self):
        assert proportion_ci95(0, 0) == (0.0, 1.0)

    def test_contains_true_proportion(self):
        low, high = proportion_ci95(50, 100)
        assert low < 0.5 < high


class TestTables:
    def test_render_alignment(self):
        text = render_table("T", ["col", "x"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert "col" in lines[1] and "x" in lines[1]
        assert len(lines) == 5

    def test_note_appended(self):
        text = render_table("T", ["c"], [[1]], note="hello")
        assert text.endswith("note: hello")

    def test_wide_cells_fit(self):
        text = render_table("T", ["h"], [["wide-cell-content"]])
        header, rule, row = text.splitlines()[1:]
        assert len(header) == len(row)
