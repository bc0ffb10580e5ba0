"""E7 / Figure 3 — polynomial efficiency (paper abstract, §1).

Measures messages per protocol layer against n and fits log-log slopes.
The claim under test: every layer's cost is polynomial in n, with small
exponents:

* RB: exactly 2n^2 + n messages (slope 2);
* MW-SVSS share+reconstruct: Theta(n^3) (n broadcasts of RB cost);
* SVSS: Theta(n^5) (2n^2 MW-SVSS instances);
* the coin multiplies SVSS by n^2 — measured at n=4 and cross-checked
  against the SVSS fit rather than swept (a single n=10 coin flip is ~50M
  simulated messages; the fit-based extrapolation is the point).

Every run is scheduled per message (``SCHEDULERS["per-message"]``: the
default scheduler's seeded delays, envelopes and session vectors both
vetoed), so the counts are the paper's literal bill — one message per
session per recipient — not the packed transport's.
"""

from __future__ import annotations

from repro.analysis.complexity import fit_power_law
from repro.analysis.tables import render_table
from repro.config import SystemConfig
from repro.sim.experiments import SCHEDULERS
from repro.core.api import build_stack, flip_common_coin, run_mwsvss, run_svss

RB_NS = (4, 7, 10, 13, 16, 20)
MW_NS = (4, 7, 10, 13)
SVSS_NS = (4, 7, 10)


def _rb_points():
    from repro.broadcast.manager import BroadcastManager  # noqa: F401

    points = []
    for n in RB_NS:
        cfg = SystemConfig(n=n, seed=0)
        stack = build_stack(cfg, scheduler=SCHEDULERS["per-message"](cfg), with_vss=False)
        stack.broadcasts[1].subscribe("x", lambda o, v: None)
        stack.broadcasts[1].broadcast((1, "x", 0), ("x", "payload"))
        stack.runtime.run_to_quiescence()
        points.append((n, stack.trace.total_messages))
    return points


def _mw_points():
    points = []
    for n in MW_NS:
        cfg = SystemConfig(n=n, seed=0)
        result, _ = run_mwsvss(
            cfg, dealer=1, moderator=2, secret=7, scheduler=SCHEDULERS["per-message"](cfg)
        )
        points.append((n, result.trace.total_messages))
    return points


def _svss_points():
    points = []
    for n in SVSS_NS:
        cfg = SystemConfig(n=n, seed=0)
        result, _ = run_svss(cfg, dealer=1, secret=7, scheduler=SCHEDULERS["per-message"](cfg))
        points.append((n, result.trace.total_messages))
    return points


def _coin_point():
    cfg = SystemConfig(n=4, seed=0)
    result, _ = flip_common_coin(cfg, scheduler=SCHEDULERS["per-message"](cfg))
    return (4, result.trace.total_messages)


def test_e7_complexity(benchmark, emit):
    def experiment():
        return _rb_points(), _mw_points(), _svss_points(), _coin_point()

    rb, mw, svss, coin = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rb_fit = fit_power_law(rb)
    mw_fit = fit_power_law(mw)
    svss_fit = fit_power_law(svss)
    coin_ratio = coin[1] / dict(svss)[4]
    rows = [
        ["RB", str(rb), f"n^{rb_fit.exponent:.2f}", "n^2 (2n^2+n exactly)"],
        ["MW-SVSS", str(mw), f"n^{mw_fit.exponent:.2f}", "n^3"],
        ["SVSS", str(svss), f"n^{svss_fit.exponent:.2f}", "n^5"],
        [
            "SCC coin",
            f"n=4: {coin[1]} msgs",
            f"{coin_ratio:.1f}x SVSS(4) ~ n^2 sharings",
            "n^2 x SVSS = n^7",
        ],
    ]
    emit(
        render_table(
            "E7 (Figure 3): messages vs n per layer, log-log fits",
            ["layer", "measurements (n, msgs)", "fitted", "paper-analytic"],
            rows,
            note="all fits are polynomial with small exponents - the "
            "paper's efficiency claim; exact RB formula checked below",
        )
    )
    for n, msgs in rb:
        assert msgs == 2 * n * n + n
    assert 1.9 <= rb_fit.exponent <= 2.1
    assert 2.3 <= mw_fit.exponent <= 3.5
    assert 4.0 <= svss_fit.exponent <= 5.5
    assert coin_ratio > 5.0  # the n^2 sharings dominate one SVSS
