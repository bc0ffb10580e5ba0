"""Sample statistics and the comparison rule of the choosing-metrics guide.

Pure functions, no ``repro`` import: the parent process and the tests use
them without touching the program under test.
"""

from __future__ import annotations

import math
import statistics

IMPROVED = "improved"
UNCHANGED = "unchanged"
UNRESOLVED = "unresolved"
REGRESSED = "regressed"

#: A gain is claimed on at least ten pairs of parent and change runs.
MIN_PAIRS = 10


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) the way the benchmark contract takes them:
    ``statistics.quantiles(values, n=4)``.  One value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of parent
    (negative = better).  ``better`` is ``"lower"`` or ``"higher"``."""
    if parent == 0:
        if change == 0:
            return 0.0
        return math.inf if (change > 0) == (better == "lower") else -math.inf
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def compare(parent, change, better: str, bound: float, absolute: bool = False) -> dict:
    """Verdict for one (metric, workload): ``parent`` and ``change`` are the
    metric's values over the runs of each side, paired by position.

    * ``regressed`` — the change's median is worse than the parent's by more
      than ``bound`` (a share of the parent's median, or an absolute amount
      when ``absolute``);
    * ``improved`` — there are at least ten pairs, the change wins at least
      nine tenths of them (ties count for neither) and the medians differ by
      more than the parent's interquartile distance;
    * ``unresolved`` — neither, and the parent's own spread is wider than the
      bound, unless every run of the change reads better than every run of
      the parent;
    * ``unchanged`` — otherwise.
    """
    parent = list(parent)
    change = list(change)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    sign = 1 if better == "lower" else -1
    pairs = list(zip(parent, change))
    won = sum(1 for a, b in pairs if sign * (b - a) < 0)
    lost = sum(1 for a, b in pairs if sign * (b - a) > 0)
    worse = sign * (c_med - p_med) if absolute else worse_by(p_med, c_med, better)
    iqr = p_q3 - p_q1
    parent_spread = iqr if absolute else (iqr / abs(p_med) if p_med else 0.0)
    all_better = all(sign * (b - a) < 0 for a in parent for b in change)
    if worse > bound:
        verdict = REGRESSED
    elif len(pairs) >= MIN_PAIRS and won >= 0.9 * len(pairs) and abs(c_med - p_med) > iqr and worse < 0:
        verdict = IMPROVED
    elif parent_spread > bound and not all_better:
        verdict = UNRESOLVED
    else:
        verdict = UNCHANGED
    return {
        "verdict": verdict,
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3, "runs": len(parent)},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3, "runs": len(change)},
        "pairs": len(pairs),
        "won": won,
        "lost": lost,
        "worse_by": worse,
        "parent_spread": parent_spread,
        "bound": bound,
    }
