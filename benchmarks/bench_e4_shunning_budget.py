"""E4 / Table 2 — the shunning budget (paper §5).

The whole termination argument rests on: every property-violating session
consumes at least one fresh (nonfaulty, faulty) shun pair, and there are at
most ``t * (n - t)`` such pairs.  This bench runs long sequences of
MW-SVSS sessions against persistently lying processes and measures

* total shun pairs (must stay <= t(n-t));
* culprit identity (Lemma 1(a): only faulty processes are ever convicted);
* self-healing: sessions after the budget is spent reconstruct cleanly.
"""

from __future__ import annotations

import random

from repro.adversary.behaviors import LyingReconstructorBehavior
from repro.adversary.controller import Adversary
from repro.analysis.tables import render_table
from repro.config import SystemConfig
from repro.core.api import build_stack
from repro.core.manager import CallbackWatcher
from repro.core.sessions import mw_session

SESSIONS = 12


def _run_liars(n: int, seed: int, liars: list[int]):
    cfg = SystemConfig(n=n, seed=seed)
    adversary = Adversary(
        {liar: LyingReconstructorBehavior(random.Random(seed + liar)) for liar in liars}
    )
    stack = build_stack(cfg, adversary=adversary)
    nonfaulty = set(stack.nonfaulty())
    last_outputs = {}
    for c in range(SESSIONS):
        tag = ("e4", c)
        sid = mw_session(tag, 1, 2, "dm")
        completed, outputs = set(), {}
        for pid in cfg.pids:
            stack.vss[pid].register_watcher(
                tag,
                CallbackWatcher(
                    on_mw_share_complete=lambda s, pid=pid: completed.add(pid),
                    on_mw_output=lambda s, v, pid=pid: outputs.setdefault(pid, v),
                ),
            )
        stack.vss[1].mw_share(sid, c)
        stack.vss[2].mw_moderate(sid, c)
        stack.runtime.run_until(lambda: nonfaulty <= completed, max_events=20_000_000)
        for pid in cfg.pids:
            try:
                stack.vss[pid].mw_begin_reconstruct(sid)
            except Exception:
                continue
        stack.runtime.run_until(
            lambda: nonfaulty <= set(outputs), max_events=20_000_000
        )
        last_outputs = outputs
    return cfg, stack, nonfaulty, last_outputs


def test_e4_shunning_budget(benchmark, emit):
    def experiment():
        campaigns = []
        campaigns.append(("n=4, 1 liar", *_run_liars(4, 1, [3])))
        campaigns.append(("n=7, 2 liars", *_run_liars(7, 2, [3, 6])))
        return campaigns

    campaigns = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = []
    for label, cfg, stack, nonfaulty, last_outputs in campaigns:
        pairs = stack.trace.shun_pairs()
        budget = cfg.t * (cfg.n - cfg.t)
        liars = stack.adversary.corrupt_pids
        clean_last = all(
            last_outputs.get(p) == SESSIONS - 1 for p in nonfaulty
        )
        rows.append(
            [
                label,
                f"{SESSIONS} sessions",
                f"{len(pairs)} <= {budget}",
                "yes" if all(c in liars for _, c in pairs) else "NO",
                "yes" if clean_last else "NO",
            ]
        )
        assert len(pairs) <= budget
        assert all(culprit in liars for _, culprit in pairs)
        assert all(observer not in liars for observer, _ in pairs)
        assert clean_last
    emit(
        render_table(
            "E4 (Table 2): shunning budget under persistent liars",
            ["campaign", "workload", "shun pairs vs t(n-t)", "culprits faulty", "self-healed"],
            rows,
            note="expected shape: pairs bounded by t(n-t); only liars "
            "convicted; final session reconstructs its secret cleanly",
        )
    )
