"""Where one coin's memory is: ``tracemalloc`` tables at the peak of each phase.

Runs the inputs of the end-to-end benchmark's ``coin_n7`` operation — one
fault-free ``flip_common_coin`` shape (FIFO, default transport, seed
``1000 * seed``) — four times per n.  The run is deterministic per seed, so
pass 1 reads the traced heap at every delivered event and names, for each
phase, the event at which it peaks: the share phase runs until the first
MW-SVSS share completes, the reconstruct phase after it.  Pass 2 takes one
snapshot at the share-phase peak event and pass 3 one at the
reconstruct-phase peak event.  Each snapshot is grouped by module and by
``file:line``; both groupings must sum to the traced heap at the snapshot,
that heap must be pass 1's reading at the same event, and the larger phase
peak must be the run's traced peak.

The traced heap is not what sets the process' resident set: the allocator
keeps freed arenas, and ``tracemalloc`` sees no interpreter overhead.  So
pass 0 runs the same coin untraced, before the traced passes, and reads the
current RSS (``/proc/self/statm``; where that is missing, ``ru_maxrss``,
which is a running maximum) every ``RSS_EVERY`` delivered events: it
names each phase's RSS peak and the event of the RSS high-water.  Earlier
passes leave their arenas behind, so read an n's RSS from a run of that n
alone (``--n 7``).

    PYTHONPATH=src python benchmarks/mem_profile.py            # n = 4, 7
    PYTHONPATH=src python benchmarks/mem_profile.py --n 4      # CI smoke
    PYTHONPATH=src python benchmarks/mem_profile.py --n10      # adds n = 10

``--src DIR`` profiles another checkout's ``src`` (the before column of
``docs/MEMORY.md`` is this script at the parent commit).  Exit status 1 when
the parts do not sum.
"""

from __future__ import annotations

import argparse
import gc
import os
import pathlib
import resource
import sys
import tracemalloc

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The snapshot's own bookkeeping moves the heap between the reading and the
#: snapshot; the parts must still be within this share of the whole.
SUM_TOLERANCE = 0.02
#: Pass 0 reads the resident set at every this-many delivered events.
RSS_EVERY = 50


def start_coin(n: int, seed: int):
    """The ``coin_n7`` operation up to (not including) its event loop."""
    from repro.config import SystemConfig
    from repro.core.api import build_stack, make_coins
    from repro.sim.scheduler import FifoScheduler

    config = SystemConfig(n=n, seed=1000 * seed)
    stack = build_stack(config, scheduler=FifoScheduler())
    coins = make_coins(stack, "svss")
    csid = ("cc", "solo", 0)
    outputs: dict[int, int] = {}
    with stack.runtime.coalescing_step():
        for pid in config.pids:
            coins[pid].join(csid)
            coins[pid].get(csid, lambda v, pid=pid: outputs.setdefault(pid, v))
            coins[pid].release(csid)
    return stack, outputs


def current_rss() -> int:
    """Resident bytes now (``ru_maxrss``, the high-water, without ``/proc``)."""
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak if sys.platform == "darwin" else peak * 1024


def run_coin(n: int, seed: int, snapshot_at: int | None, rss: bool = False):
    """One traced coin.  Returns ``(phases, first MW share completion,
    traced peak, MW instances, (heap, snapshot))``: ``phases`` holds the
    ``(event, heap)`` of the largest heap at a delivered event before and
    after the first MW share completed, and the snapshot is taken at event
    ``snapshot_at`` (``None``: no snapshot, just find the phase peaks).
    With ``rss`` the coin runs untraced, ``phases`` holds RSS read at
    every ``RSS_EVERY``-th event, and the traced peak is the RSS peak."""
    from repro.core.mwsvss import MWSVSSInstance

    # Finished sharings leave the manager's tables: count instances as made.
    created = [0]
    init = MWSVSSInstance.__init__

    def counted(self, manager, sid):
        created[0] += 1
        init(self, manager, sid)

    MWSVSSInstance.__init__ = counted
    gc.collect()
    if not rss:
        tracemalloc.start()
    try:
        stack, outputs = start_coin(n, seed)
        events = [0]
        shared_at = [None]  # the event of the first MW share completion
        phases = [[0, 0], [0, 0]]  # (event, heap) before / after it
        taken = []

        def tap(src, dst, payload):
            events[0] += 1
            if rss:
                if events[0] % RSS_EVERY:
                    return
                current = current_rss()
            else:
                current = tracemalloc.get_traced_memory()[0]
            phase = phases[shared_at[0] is not None]
            if current > phase[1]:
                phase[0], phase[1] = events[0], current
            if events[0] == snapshot_at:
                taken.append((current, tracemalloc.take_snapshot()))

        def watch(vss):
            complete = vss.notify_mw_share_complete

            def first_completion(sid):
                if shared_at[0] is None:
                    shared_at[0] = events[0]
                complete(sid)

            vss.notify_mw_share_complete = first_completion

        for vss in stack.vss.values():
            watch(vss)
        stack.runtime.delivery_tap = tap
        everyone = set(stack.config.pids)
        stack.runtime.run_until(
            lambda: everyone <= set(outputs), max_events=30_000_000, on_change=True
        )
        if len(set(outputs.values())) != 1:
            raise RuntimeError(f"the coin did not output one bit: {outputs}")
        if rss:
            peak = max(phases[0][1], phases[1][1])
        else:
            peak = tracemalloc.get_traced_memory()[1]
        instances = created[0]
    finally:
        tracemalloc.stop()
        MWSVSSInstance.__init__ = init
    return phases, shared_at[0], peak, instances, taken[0] if taken else None


def module_of(filename: str) -> str:
    parts = pathlib.PurePath(filename).parts
    if "repro" in parts:
        return "/".join(parts[parts.index("repro"):])
    return "(python)" if filename.startswith("<") or "lib" in parts else parts[-1]


def table(rows: list[tuple[str, int]], total: int, instances: int, top: int) -> list[str]:
    lines = ["| where | MB | share | B / MW instance |", "|---|---:|---:|---:|"]
    shown = rows[:top]
    rest = sum(size for _, size in rows[top:])
    if rest:
        shown = shown + [(f"({len(rows) - top} more)", rest)]
    for name, size in shown:
        lines.append(
            f"| `{name}` | {size / 2**20:.1f} | {size / total:.1%} | {size / instances:.0f} |"
        )
    return lines


def snapshot_tables(snapshot, instances: int, top: int) -> tuple[int, int, list[str]]:
    """What the ``file:line`` and the module groupings of one snapshot sum
    to, and their tables."""
    by_line = snapshot.statistics("lineno")
    line_rows = [
        (f"{module_of(s.traceback[0].filename)}:{s.traceback[0].lineno}", s.size)
        for s in by_line
    ]
    modules: dict[str, int] = {}
    for stat in snapshot.statistics("filename"):
        name = module_of(stat.traceback[0].filename)
        modules[name] = modules.get(name, 0) + stat.size
    module_rows = sorted(modules.items(), key=lambda row: -row[1])
    line_sum = sum(size for _, size in line_rows)
    lines = table(module_rows, line_sum, instances, top)
    lines += [""] + table(line_rows, line_sum, instances, 2 * top)
    return line_sum, sum(size for _, size in module_rows), lines


def rss_profile(n: int, seed: int) -> None:
    """Pass 0: the untraced coin's RSS at each phase peak and its high-water."""
    phases, shared_at, peak, _, _ = run_coin(n, seed, snapshot_at=None, rss=True)
    top = max(range(2), key=lambda i: phases[i][1])
    print(
        f"RSS, untraced, read every {RSS_EVERY} events: share phase peaks at "
        f"{phases[0][1] / 2**20:.1f} MB (event {phases[0][0]}), reconstruct "
        f"phase at {phases[1][1] / 2**20:.1f} MB (event {phases[1][0]}); "
        f"**the high-water is event {phases[top][0]}** "
        f"({peak / 2**20:.1f} MB; first MW share completed at event {shared_at})\n"
    )


def profile(n: int, seed: int, top: int) -> bool:
    print(f"### n = {n} (seed {1000 * seed})\n")
    rss_profile(n, seed)
    phases, shared_at, peak, instances, _ = run_coin(n, seed, snapshot_at=None)
    top_phase = max(range(2), key=lambda i: phases[i][1])
    ok = abs(phases[top_phase][1] - peak) <= SUM_TOLERANCE * peak
    print(
        f"traced peak {peak / 2**20:.1f} MB; {instances} MW-SVSS instances over {n} "
        f"processes, **{peak / instances:.0f} B per instance**; the first MW "
        f"share completed at event {shared_at} "
        f"({'ok' if ok else 'MISMATCH: no phase peak is the traced peak'})\n"
    )
    for phase, (event, reading) in enumerate(phases):
        *_, (heap, snapshot) = run_coin(n, seed, snapshot_at=event)
        parts, module_parts, lines = snapshot_tables(snapshot, instances, top)
        fits = (
            parts == module_parts
            and abs(parts - heap) <= SUM_TOLERANCE * heap
            and abs(heap - reading) <= SUM_TOLERANCE * reading
        )
        ok = ok and fits
        name = ("share", "reconstruct")[phase]
        where = " (the traced peak)" if phase == top_phase else ""
        print(
            f"#### {name} phase: {heap / 2**20:.1f} MB at event {event}{where}; "
            f"snapshot parts sum to {parts / 2**20:.1f} MB "
            f"({'ok' if fits else 'MISMATCH'})\n"
        )
        print("\n".join(lines))
        print()
    return ok


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, action="append", help="profile this n (repeatable)")
    parser.add_argument("--n10", action="store_true", help="also n = 10 (~15 min, ~3 GB)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=12)
    parser.add_argument("--src", default=str(REPO_ROOT / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    sizes = args.n or [4, 7]
    if args.n10:
        sizes.append(10)
    ok = True
    for n in sizes:
        ok = profile(n, args.seed, args.top) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
