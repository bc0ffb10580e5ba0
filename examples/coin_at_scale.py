#!/usr/bin/env python3
"""Coin at scale: flip the SVSS shunning common coin at n = 10.

One common-coin invocation runs n² = 100 concurrent per-slot SVSS
sharings (each fanning out MW-SVSS sub-sessions), whose per-message
traffic is ~105M logical messages at n = 10 — past the simulator's
50M-event livelock guard, i.e. unrunnable before semantic aggregation.
The transport packs by default — session-vector messages (one
``("svec", ...)`` message per (step, dealer-group) instead of n
per-session messages, one reliable broadcast per step instead of one per
vector) plus wire coalescing (one envelope per (src, dst) pair per step)
— and the same invocation is ~1.6M logical messages on ~850k events and
completes in about a minute, with the same coin outputs.  (The
per-message run is a scheduler away:
``SlotSplittingScheduler(EnvelopeSplittingScheduler(FifoScheduler()))``;
try it at n = 4.)

On the receive side each slot-vector is admitted through one
group-level DMM verdict probe instead of n per-slot calls, and each
slot's session is found in its group's lane without rebuilding a
session id — same outputs, a fraction of the per-slot work.

The algebra underneath all of it is pure Python: value rows and cached
Lagrange bases (``docs/ALGEBRA.md``).

The CPU line is the process' own seconds (``time.process_time``), which
another load on the host moves far less than the wall-clock line.  The
last line is the process' resident-set high-water (``ru_maxrss``)
and that over the coin's 2n⁵ MW-SVSS instances (n² SVSS sharings × 2n²
sessions × n process views): run one n per process, nothing else running,
to read one rung of ``docs/MEMORY.md``'s n-ladder.  The field is the
default one (251 for every n below 251) unless a prime is given.

Run:  python examples/coin_at_scale.py [n] [prime]   (default n = 10)
"""

import resource
import sys
import time

from repro import SystemConfig
from repro.core.api import flip_common_coin
from repro.sim.scheduler import FifoScheduler


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    prime = int(sys.argv[2]) if len(sys.argv) > 2 else -1
    config = SystemConfig(n=n, prime=prime, seed=7)
    print(f"flipping the SVSS common coin: n={n}, t={config.t}, p={config.prime}")
    print("(per-message baseline at n=10: ~105M logical messages, "
          "> the 50M-event guard)")

    start, cpu_start = time.perf_counter(), time.process_time()
    result, stack = flip_common_coin(config, scheduler=FifoScheduler())
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start

    bits = sorted(set(result.outputs.values()))
    print()
    print(f"coin output        : {bits} at all {len(result.outputs)} processes"
          f" ({'unanimous' if len(bits) == 1 else 'split'})")
    print(f"wall-clock         : {wall:.1f}s")
    print(f"CPU (this process) : {cpu:.1f}s")
    print(f"events dispatched  : {result.events_dispatched:,}")
    print(f"logical messages   : {result.logical_messages:,}")
    print(f"  slot-vectors     : {result.svec_packed:,} "
          f"(folding {result.svec_slots:,} per-session messages, "
          f"~{result.svec_slots / max(1, result.svec_packed):.1f} slots each)")
    print(f"  envelopes        : {result.envelopes_pushed:,} "
          f"(carrying {result.payloads_coalesced:,} logical messages)")
    print(f"batched ingestion  : {result.svec_batch_ingested:,} vectors "
          f"group-admitted ({result.dmm_verdicts_batched:,} slot verdicts "
          f"batched, {result.dmm_verdict_fallbacks:,} per-slot fallbacks)")
    print(f"DMM verdict calls  : {result.dmm_verdict_calls:,}")
    print(f"logical msgs/event : {result.logical_messages / result.events_dispatched:.1f}")
    print(f"throughput         : {result.logical_messages / wall:,.0f} "
          "logical messages/s")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux
    print(f"ru_maxrss          : {rss / 2**20:.1f} MB, "
          f"{rss / (2 * n**5):,.0f} B per MW-SVSS instance ({2 * n**5:,})")


if __name__ == "__main__":
    main()
