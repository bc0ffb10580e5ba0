"""Spawn n OS processes and run agreement + coin flips over real sockets.

The end-to-end deployment shape of ROADMAP item 1: every protocol
process is its own ``python -m repro.net.launch --child`` subprocess
owning one :class:`~repro.net.transport.NetworkNode`; the parent
allocates ports, optionally hosts one
:class:`~repro.net.chaos.ChaosProxy` per destination (chaos stays seeded
in one place), collects each child's JSON report and has :func:`judge`
feed it to the one judge every run has,
:class:`~repro.sim.monitor.InvariantMonitor`.  A child runs its agreement
through the simulator's own driver
(:class:`~repro.core.api.AgreementDriver`) and adds only its journal and
its report; it keeps serving slower peers' retransmissions and echo asks
after reporting, until the parent says ``exit``.

Durability: every child journals to ``journal_dir``
(:class:`~repro.net.journal.Journal`).  ``restart`` scripts ``kill -9`` →
relaunch cycles: the replacement replays its journal, rejoins under a
fresh epoch with HMAC-authenticated handshakes (the secret derives from
``--seed``), holds a journaled decision for its peers — or, undecided,
asks once through the :class:`~repro.core.agreement.DecisionEcho` and
adopts the value ``t + 1`` distinct peers answer (a decided peer answers
at once, an undecided one when it decides: no timer, and no need for the
un-replayable retransmit backlog) — and is judged for agreement with its
own prior self as well as with its peers (deadlines: :func:`run_processes`).

CLI::

    python -m repro.net.launch --n 4 --inputs 1,1,1,1 --coins 2 --chaos reset

exits nonzero iff the verdict records a violation or a child fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import socket
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

from repro.config import SystemConfig
from repro.core.agreement import DecisionEcho
from repro.core.api import (
    DEFAULT_INSTANCE,
    AgreementDriver,
    build_node_modules,
    make_node_coin,
)
from repro.net.chaos import ChaosProxy
from repro.net.cluster import resolve_profile
from repro.net.transport import NetworkNode, cancel_tasks
from repro.sim.monitor import InvariantMonitor, InvariantViolation

#: Marker prefixing the one JSON line a child prints on stdout.
REPORT_PREFIX = "REPORT "

#: Seconds between child heartbeat lines (parent liveness signal).
HEARTBEAT_EVERY = 1.0


def _free_ports(count: int, host: str = "127.0.0.1") -> list[int]:
    """Reserve ``count`` distinct free TCP ports, held open together until
    all are picked (``NetworkNode.start_server``'s rebind retry rides the
    race before the children bind); a collision mid-scan retries the batch.
    """
    for attempt in range(3):
        sockets = []
        try:
            for _ in range(count):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind((host, 0))
                sockets.append(sock)
            return [sock.getsockname()[1] for sock in sockets]
        except OSError:
            if attempt == 2:
                raise
        finally:
            for sock in sockets:
                sock.close()
    raise OSError("unreachable")


# ---------------------------------------------------------------------------
# Child: one protocol process
# ---------------------------------------------------------------------------


async def _child_main(args: argparse.Namespace) -> int:
    # Peer teardown races log per-socket warnings; a child whose stderr
    # is an undrained pipe must never block on them.
    logging.getLogger("asyncio").setLevel(logging.ERROR)
    if args.hang:
        # Test hook for the parent's hung-child detection: wedge silently
        # (no heartbeats, no report) until killed.
        await asyncio.sleep(args.timeout * 10)
        return 1
    config = SystemConfig(n=args.n, t=args.t, seed=args.seed)
    node = NetworkNode(config, args.pid, args.journal)
    journal = node.journal
    #: A non-empty journal means this process is a relaunched incarnation
    #: (the node's own epoch record is not counted as replayed).
    rejoined = journal.state.replayed > 0
    # The parent reserved-then-released this port; another process (or
    # our own killed predecessor's socket) can hold it briefly, which the
    # node's rebind retry rides out.
    await node.start_server(args.port)
    entries = (entry.split(":") for entry in args.peers.split(","))
    node.set_peers({int(pid): (args.host, int(port)) for pid, port in entries})
    node.start_peers()
    _, vss = build_node_modules(node.host)
    coin = make_node_coin(node.host, "svss")

    heartbeats = asyncio.get_running_loop().create_task(_heartbeat_loop())

    # A journaled decision is held for the peers, never re-run (re-deciding
    # could contradict what they acted on).  A process that crashed
    # mid-agreement runs no fresh ABAProcess either (the votes it missed
    # were shed by peers' DOWN rings): it asks the echo, once.
    prior = dict(journal.state.decisions)
    inputs: dict = {}
    if args.input is not None and DEFAULT_INSTANCE not in prior:
        inputs[DEFAULT_INSTANCE] = {} if rejoined else {args.pid: args.input}
        if not rejoined:
            journal.record_input(DEFAULT_INSTANCE, args.input)
    driver = AgreementDriver(
        [node.host],
        inputs,
        {DEFAULT_INSTANCE: {args.pid: coin}},
        on_decision=lambda iid, pid, value, rnd: journal.record_decision(
            iid, value, rnd
        ),
    )
    echo = DecisionEcho.of(node.host)
    for instance, (value, _) in prior.items():
        echo.hold(instance, value)
    if rejoined and inputs:
        echo.ask(DEFAULT_INSTANCE)
    coin_outputs: dict[int, int] = {}

    def on_coin(k: int, v: object) -> None:
        if k in coin_outputs:
            return
        coin_outputs[k] = v
        journal.record_coin(("cc", "solo", k), v)

    with node.runtime.coalescing_step():
        for k in range(args.coins):
            csid = ("cc", "solo", k)
            if csid in journal.state.coins:
                coin_outputs[k] = journal.state.coins[csid]
                continue
            coin.join(csid)
            coin.get(csid, lambda v, k=k: on_coin(k, v))
            coin.release(csid)

    report: dict = {"pid": args.pid, "rejoined": rejoined}
    try:
        await node.wait_for(
            lambda: driver.finished() and len(coin_outputs) == args.coins,
            timeout=args.timeout,
        )
    except TimeoutError:
        report["timeout"] = True
    decision = journal.state.decisions.get(DEFAULT_INSTANCE)
    report["decisions"] = {} if decision is None else {DEFAULT_INSTANCE: list(decision)}
    report["prior_decisions"] = {str(i): list(d) for i, d in prior.items()}
    report["coins"] = {str(k): v for k, v in coin_outputs.items()}
    journal.record_shun_set(vss.dmm.shunned_or_suspected())
    # What this process's DMM detected (not who it merely still waits on):
    # the parent holds every child to the monitor's shun rules.
    report["shuns"] = [
        [rec.culprit, rec.session] for rec in node.runtime.trace.shun_records
    ]
    report["stats"] = node.stats()
    print(REPORT_PREFIX + json.dumps(report), flush=True)

    # Stay online (serving retransmits to slower peers, answering the echo
    # asks of rejoiners) until the parent releases us — or until stdin hits
    # EOF because the parent died.  A pipe reader (not an executor thread
    # blocked in readline) keeps the loop shutdown joinable.
    loop = asyncio.get_running_loop()
    stdin_reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(stdin_reader), sys.stdin
    )
    try:
        await asyncio.wait_for(stdin_reader.readline(), timeout=args.timeout)
    except asyncio.TimeoutError:
        pass
    await cancel_tasks([heartbeats])
    await node.close()
    return 1 if report.get("timeout") else 0


async def _heartbeat_loop() -> None:
    """One ``HB`` line per second: the parent's liveness signal.  A child
    wedged in a handler (or deadlocked) stops printing and gets killed at
    the parent's ``hung_after`` deadline."""
    while True:
        print("HB", flush=True)
        await asyncio.sleep(HEARTBEAT_EVERY)


# ---------------------------------------------------------------------------
# Parent: spawn, collect, judge
# ---------------------------------------------------------------------------


#: The host every child is: each runs the honest protocol code.
_HONEST = SimpleNamespace(behavior=None)


def judge(config: SystemConfig, inputs: "list[int] | None", outcomes: dict) -> dict:
    """Judge a launch run with the simulator's invariant monitor.

    ``outcomes`` maps each surviving pid to its report, ``"hung"`` (killed
    without reporting) or None (exited without reporting).  Reports feed
    the monitor's hooks in pid order: journaled ``prior_decisions`` then
    ``decisions`` (a relaunch contradicting its journal is a
    ``self-contradiction``; an echo adoption is a round-0 decision), coin
    outputs, and shuns (every child is honest, so any shun breaks a rule).
    Each violation becomes one ``{"kind", "message", "detail"}`` entry and
    feeding goes on.  Judged here only: ``hung``, ``liveness`` (a reporter
    undecided though inputs were given) and ``no-report``.

    Returns ``monitor.verdict()`` plus ``violations`` and ``reports``.
    """
    monitor = InvariantMonitor()
    monitor.install(SimpleNamespace(
        config=config, now=0.0, monitor=None, host=lambda pid: _HONEST
    ))
    if inputs is not None:
        monitor.expect_inputs(
            DEFAULT_INSTANCE, {pid: inputs[pid - 1] for pid in config.pids}
        )
    violations: list[dict] = []

    def violate(kind: str, message: str, detail: dict) -> None:
        violations.append({"kind": kind, "message": message, "detail": detail})

    def feed(hook, *args) -> None:
        try:
            hook(*args)
        except InvariantViolation as err:
            violate(err.kind, str(err), err.detail)

    outcomes = dict(sorted(outcomes.items()))
    reports = {pid: out for pid, out in outcomes.items() if isinstance(out, dict)}
    for pid, report in reports.items():
        for decisions in (report["prior_decisions"], report["decisions"]):
            for instance, (value, r) in decisions.items():
                monitor.on_round(instance, pid, r)
                feed(monitor.on_decision, instance, pid, value, r)
        for csid, value in report["coins"].items():
            monitor.on_coin_output(csid, pid, value)
        for culprit, session in report["shuns"]:
            feed(monitor.on_shun, pid, culprit, session)
    for pid, outcome in outcomes.items():
        if outcome == "hung":
            violate("hung", f"process {pid} stopped responding and was "
                    "killed", {"pid": pid})
    undecided = [pid for pid, report in reports.items()
                 if DEFAULT_INSTANCE not in report["decisions"]]
    if inputs is not None and undecided:
        violate("liveness", f"processes {undecided} reported but did not "
                f"decide {DEFAULT_INSTANCE!r}", {"missing": undecided})
    missing = [pid for pid, outcome in outcomes.items() if outcome is None]
    if missing:
        violate("no-report", f"children {missing} produced no report",
                {"missing": missing})
    return {**monitor.verdict(), "violations": violations, "reports": reports}


async def run_processes(
    n: int,
    inputs: "list[int] | None" = None,
    coins: int = 0,
    seed: int = 0,
    chaos: "str | None" = None,
    kill_after: "dict[int, float] | None" = None,
    timeout: float = 60.0,
    host: str = "127.0.0.1",
    restart: "dict[int, tuple[float, float]] | None" = None,
    journal_dir: "str | Path | None" = None,
    hung_after: "float | None" = None,
    hang: "set[int] | None" = None,
) -> dict:
    """Run agreement (and ``coins`` coin flips) across n OS processes.

    ``kill_after`` maps pid -> seconds: those children are SIGKILLed that
    long into the run and never restarted — fail-stop crashes of up to t
    processes; the verdict's liveness bar covers the survivors only.

    ``restart`` maps pid -> (kill_at, restart_at) seconds: SIGKILL at
    ``kill_at``, relaunch the same child argv at ``restart_at`` — the
    replacement replays its journal and must still report (and agree,
    with the cluster *and* with its own journaled past).
    Killed-or-restarted pids are capped at t together.

    Every child journals to ``journal_dir``; when it is omitted a
    temporary directory is created for the run and removed after it.

    ``hung_after`` arms the heartbeat deadline: a child with no stdout
    line for that long is killed and recorded as a ``hung`` violation, as
    is a child still silent at the run's overall deadline.  ``hang`` pids
    wedge deliberately (test hook for that path).

    Returns :func:`judge`'s verdict on the survivors.
    """
    config = SystemConfig(n=n, seed=seed)
    kill_after = kill_after or {}
    restart = restart or {}
    hang = hang or set()
    if set(kill_after) & set(restart):
        raise ValueError(
            f"pids {sorted(set(kill_after) & set(restart))} both killed "
            "and restarted; pick one"
        )
    faulted = len(kill_after) + len(restart) + len(hang)
    if faulted > config.t:
        raise ValueError(
            f"faulting {faulted} > t = {config.t} processes forfeits "
            "the liveness bar"
        )
    own_journal_dir = None
    if journal_dir is None:
        # Removed after the run, however the run ends.
        own_journal_dir = tempfile.TemporaryDirectory(prefix="repro-net-j-")
        journal_dir = own_journal_dir.name
    proxies: dict[int, ChaosProxy] = {}
    children: dict = {}
    reapers: list[asyncio.Task] = []
    #: pid -> report dict, ``"hung"`` or None: what :func:`judge` takes.
    outcomes: dict[int, object] = {}
    survivors = [pid for pid in config.pids if pid not in kill_after]
    try:
        ports = _free_ports(n, host)
        port_of = {pid: ports[pid - 1] for pid in config.pids}
        profile = resolve_profile(chaos)
        reach_of = dict(port_of)
        if profile is not None:
            for pid in config.pids:
                proxy = ChaosProxy(
                    pid, (host, port_of[pid]), profile, seed, n, bind_host=host
                )
                await proxy.start()
                proxies[pid] = proxy
                reach_of[pid] = proxy.port
        peers_arg = ",".join(f"{pid}:{reach_of[pid]}" for pid in config.pids)

        async def spawn(pid: int):
            argv = [
                sys.executable, "-m", "repro.net.launch", "--child",
                "--pid", str(pid), "--n", str(n), "--t", str(config.t),
                "--seed", str(seed), "--host", host,
                "--port", str(port_of[pid]), "--peers", peers_arg,
                "--coins", str(coins), "--timeout", str(timeout),
                "--journal", str(Path(journal_dir) / f"node-{pid}.journal"),
            ]
            if inputs is not None:
                argv += ["--input", str(inputs[pid - 1])]
            if pid in hang:
                argv += ["--hang"]
            return await asyncio.create_subprocess_exec(
                *argv,
                stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE,
                # Never PIPE stderr: nobody drains it, and a child blocked
                # on a full stderr pipe can never reach an await to be
                # released.
                stderr=asyncio.subprocess.DEVNULL,
            )

        for pid in config.pids:
            children[pid] = await spawn(pid)

        async def reap(pid: int, delay: float) -> None:
            await asyncio.sleep(delay)
            children[pid].kill()

        respawned = {pid: asyncio.Event() for pid in restart}

        async def restarter(pid: int, kill_at: float, restart_at: float) -> None:
            await asyncio.sleep(kill_at)
            children[pid].kill()
            await children[pid].wait()  # reap the corpse; its port frees here
            await asyncio.sleep(max(0.0, restart_at - kill_at))
            children[pid] = await spawn(pid)
            respawned[pid].set()

        reapers += [
            asyncio.get_running_loop().create_task(reap(pid, delay))
            for pid, delay in kill_after.items()
        ] + [
            asyncio.get_running_loop().create_task(restarter(pid, k, r))
            for pid, (k, r) in restart.items()
        ]

        async def read_report(pid: int):
            """One pid's outcome — across incarnations for restarted pids.

            Returns the report dict, ``"hung"`` if the child blew the
            heartbeat deadline, or None on EOF without a report.
            Heartbeat lines reset the deadline and are discarded.
            """
            while True:
                child = children[pid]
                try:
                    line = await asyncio.wait_for(
                        child.stdout.readline(), timeout=hung_after
                    )
                except asyncio.TimeoutError:
                    return "hung"
                if line:
                    text = line.decode("utf-8", "replace").strip()
                    if text.startswith(REPORT_PREFIX):
                        if pid in restart and not respawned[pid].is_set():
                            # The pre-kill incarnation got its report out
                            # before the SIGKILL landed.  The run's verdict
                            # must judge the *rejoined* incarnation (whose
                            # prior_decisions carry this one's decision),
                            # so discard and read on across the restart.
                            continue
                        return json.loads(text[len(REPORT_PREFIX):])
                    continue  # heartbeat or stray output
                # EOF: a restarted pid's first incarnation died on
                # schedule — carry on reading the replacement's stdout.
                if pid in restart:
                    if not respawned[pid].is_set():
                        await respawned[pid].wait()
                        continue
                    if children[pid] is not child:
                        continue
                return None

        async def collect(pid: int) -> None:
            outcomes[pid] = await read_report(pid)

        try:
            await asyncio.wait_for(
                asyncio.gather(
                    *(collect(pid) for pid in survivors),
                    return_exceptions=True,
                ),
                timeout=timeout + 15.0 + max(
                    (r for _, r in restart.values()), default=0.0
                ),
            )
        except asyncio.TimeoutError:
            # Past the run's deadline a survivor that has neither reported
            # nor exited is wedged, heartbeating or not.
            for pid in survivors:
                outcomes.setdefault(pid, "hung")
    finally:
        for reaper in reapers:
            reaper.cancel()
        # A reporter is released; every other child is killed.  Both are
        # reaped, so no child outlives the call.
        for pid, child in children.items():
            try:
                if isinstance(outcomes.get(pid), dict):
                    child.stdin.write(b"exit\n")
                    await child.stdin.drain()
                else:
                    child.kill()
            except OSError:  # already gone, or its stdin already closed
                pass

        async def reap_child(child) -> None:
            try:
                await asyncio.wait_for(child.wait(), timeout=10.0)
            except asyncio.TimeoutError:
                child.kill()
                await child.wait()

        await asyncio.gather(
            *(reap_child(child) for child in children.values()),
            return_exceptions=True,
        )
        for proxy in proxies.values():
            await proxy.close()
        if own_journal_dir is not None:
            own_journal_dir.cleanup()
    return judge(config, inputs, {pid: outcomes.get(pid) for pid in survivors})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Run agreement over n real OS processes"
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--t", type=int, default=-1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--coins", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--chaos", default=None)
    parser.add_argument(
        "--inputs", default=None, help="comma-separated, one per pid"
    )
    parser.add_argument(
        "--journal-dir", default=None,
        help="directory for per-node write-ahead journals "
        "(default: a temporary one, removed after the run)",
    )
    parser.add_argument(
        "--hung-after", type=float, default=None,
        help="kill a child silent for this many seconds (hung verdict)",
    )
    # child-only:
    parser.add_argument("--pid", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--port", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--peers", default="", help=argparse.SUPPRESS)
    parser.add_argument("--input", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--journal", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--hang", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.child:
        return asyncio.run(_child_main(args))
    inputs = None
    if args.inputs is not None:
        inputs = [int(v) for v in args.inputs.split(",")]
        if len(inputs) != args.n:
            raise SystemExit(f"need {args.n} inputs, got {len(inputs)}")
    result = asyncio.run(
        run_processes(
            args.n,
            inputs=inputs,
            coins=args.coins,
            seed=args.seed,
            chaos=args.chaos,
            timeout=args.timeout,
            journal_dir=args.journal_dir,
            hung_after=args.hung_after,
        )
    )
    summary = {k: v for k, v in result.items() if k != "reports"}
    print(json.dumps(summary, indent=2, default=repr))
    return 1 if result["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
