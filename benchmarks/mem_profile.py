"""Where one coin's memory is: a ``tracemalloc`` table at the traced peak.

Runs the inputs of the end-to-end benchmark's ``coin_n7`` operation — one
fault-free ``flip_common_coin`` shape (FIFO, default transport, seed
``1000 * seed``) — twice per n.  The run is deterministic per seed, so
pass 1 reads the traced heap at every delivered event and names the event
at which it peaks, and pass 2 takes one snapshot at exactly that event.  The
snapshot is grouped by module and by ``file:line``; both groupings must sum
to the traced heap at the snapshot, and that heap to the run's traced peak.
The global peak can sit in the share phase, so pass 2 also reports the
reconstruct phase: the largest heap at a delivered event after the first
MW-SVSS share completed, with its event number.

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
import pathlib
import sys
import tracemalloc

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The snapshot's own bookkeeping moves the heap between the reading and the
#: snapshot; the parts must still be within this share of the whole.
SUM_TOLERANCE = 0.02


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


def run_coin(n: int, seed: int, snapshot_at: int | None):
    """One traced coin.  Returns ``(peak event, traced peak, MW instances,
    reconstruct phase, (heap, snapshot))``; the reconstruct phase is
    ``(first MW share completion, event, heap)`` of the largest heap at a
    delivered event after the first MW share completed, and the snapshot is
    taken at event ``snapshot_at`` (``None``: no snapshot, just find the
    peak event)."""
    from repro.core.mwsvss import MWSVSSInstance

    # Finished sharings leave the manager's tables: count instances as made.
    created = [0]
    init = MWSVSSInstance.__init__

    def counted(self, manager, sid):
        created[0] += 1
        init(self, manager, sid)

    MWSVSSInstance.__init__ = counted
    gc.collect()
    tracemalloc.start()
    try:
        stack, outputs = start_coin(n, seed)
        seen = [0, 0, 0]  # events, peak event, heap at the peak event
        late = [None, 0, 0]  # first share completion, event, heap after it
        taken = []

        def tap(src, dst, payload):
            seen[0] += 1
            current = tracemalloc.get_traced_memory()[0]
            if current > seen[2]:
                seen[1], seen[2] = seen[0], current
            if late[0] is not None and current > late[2]:
                late[1], late[2] = seen[0], current
            if seen[0] == snapshot_at:
                taken.append((current, tracemalloc.take_snapshot()))

        def watch(vss):
            complete = vss.notify_mw_share_complete

            def first_completion(sid):
                if late[0] is None:
                    late[0] = seen[0]
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
        peak = tracemalloc.get_traced_memory()[1]
        instances = created[0]
    finally:
        tracemalloc.stop()
        MWSVSSInstance.__init__ = init
    return seen[1], peak, instances, tuple(late), taken[0] if taken else None


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


def profile(n: int, seed: int, top: int) -> bool:
    event, *_ = run_coin(n, seed, snapshot_at=None)
    _, peak, instances, late, (heap, snapshot) = run_coin(n, seed, snapshot_at=event)
    shared_at, late_event, late_heap = late
    if shared_at is not None and shared_at <= event:
        # The peak is in the reconstruct phase, so it is that phase's peak
        # too; the readings after it would count the snapshot's own objects.
        late_event, late_heap = event, heap
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
    module_sum = sum(size for _, size in module_rows)
    ok = (
        line_sum == module_sum
        and abs(line_sum - heap) <= SUM_TOLERANCE * heap
        and abs(heap - peak) <= SUM_TOLERANCE * peak
    )
    print(f"### n = {n} (seed {1000 * seed})\n")
    print(
        f"traced peak {peak / 2**20:.1f} MB at event {event}; {instances} MW-SVSS "
        f"instances over {n} processes, **{peak / instances:.0f} B per instance**; "
        f"reconstruct phase (after the first MW share completed, event {shared_at}) "
        f"peaks at {late_heap / 2**20:.1f} MB at event {late_event}; "
        f"snapshot parts sum to {line_sum / 2**20:.1f} MB "
        f"({'ok' if ok else 'MISMATCH'})\n"
    )
    print("\n".join(table(module_rows, line_sum, instances, top)))
    print()
    print("\n".join(table(line_rows, line_sum, instances, 2 * top)))
    print()
    return ok


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, action="append", help="profile this n (repeatable)")
    parser.add_argument("--n10", action="store_true", help="also n = 10 (~10 min, ~3 GB)")
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
