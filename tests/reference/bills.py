"""Exact logical-message bills of one fault-free MW-SVSS, SVSS and coin.

Each bill is derived from the protocol steps of ``repro.core.mwsvss``,
``repro.core.svss`` and ``repro.core.coin`` (their docstrings carry the
paper's step numbers), not fitted to measurements.  ``n`` processes,
``t = (n - 1) // 3``, every process honest, the paper's literal wire
(``per_message``: one message per session per recipient).

**RB** (Bracha): the origin's ``b1`` to all ``n``, then every process's
``b2`` and ``b3`` to all: ``R = 2n² + n`` messages per broadcast.

**MW-SVSS** share ``S'`` and reconstruct ``R'``:

* step 1: the dealer sends ``shl`` to every j and ``mon`` to every monitor
  l (n each) and ``mod`` to the moderator (1);
* step 2: every j sends ``cnf`` to every monitor (n²) and broadcasts
  ``ack`` (n broadcasts);
* step 4: every j broadcasts ``L_j`` (n) and sends ``ms`` to the moderator
  (n);
* step 6: the moderator broadcasts ``M`` (1); step 7: the dealer
  broadcasts ``ok`` (1);
* R' step 1: every process in some ``L̂_l``, ``l ∈ M̂``, broadcasts one
  ``rv`` batch.  Each ``L̂_l`` holds at least ``n - t`` pids (step 4
  freezes it at ``n - t`` confirmers), so ``n - t <= rv <= n``; the
  count is the one term that depends on the schedule (which confirmers
  each ``L_j`` froze on).

So ``n² + 3n + 1`` private messages and ``3n + 2`` broadcasts besides
``rv``.

**SVSS** share and reconstruct:

* step 1: the dealer sends ``rows`` to every j (n);
* step 2: every ordered pair (j, l), the self-pair included, runs two
  MW-SVSS shares (slots ``md`` and ``dm``): ``2n²`` MW-SVSS share phases;
* step 5: the dealer broadcasts ``G`` (1);
* R step 1: the MW-SVSS invocations of the pairs ``Ĝ`` names are
  reconstructed: two per ordered pair of the symmetric relation
  ``{(k, l), (l, k) : k ∈ Ĝ, l ∈ Ĝ_k}``.  ``|Ĝ| >= n - t`` and every
  ``|Ĝ_k| >= n - t``, so that relation has between ``(n - t)²`` and
  ``n²`` pairs: ``2(n - t)³ <= rv <= 2n³``.

**Coin** (one invocation):

* step 1: every process deals ``n`` secrets: ``n²`` SVSS share phases;
* steps 2 and 3: every process broadcasts its attach set ``att`` and its
  accepted set ``acc`` (2n);
* steps 4 and 5: a fault-free run accepts every party ``j``, and every
  process reconstructs the slot-``j`` sharing of each dealer in ``T̂_j``
  (at least ``n - t`` and at most ``n`` dealers): between ``n(n - t)``
  and ``n²`` SVSS reconstructs, so ``2n(n - t)⁴ <= rv <= 2n⁵``.

The FIFO schedule reaches every lower bound (every set freezes on the
same first ``n - t`` pids).  The seeded uniform schedule reaches
MW-SVSS's upper bound ``n`` at seed 0; no schedule this repo runs reaches
the SVSS or the coin upper bound.

:func:`run` counts one layer's entry point by layer, :func:`measure` by
kind; ``tests/test_bills.py`` and ``benchmarks/bench_e7_complexity.py``
both call them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.config import SystemConfig
from repro.core.api import flip_common_coin, run_mwsvss, run_svss
from repro.sim.scheduler import Scheduler

RV = ("vss", "rv")


def rb(n: int) -> int:
    """Messages of one fault-free reliable broadcast."""
    return 2 * n * n + n


@dataclass(frozen=True)
class Bill:
    """One run's bill: private messages by kind, reliable broadcasts by
    ``(topic, kind)`` with ``rv`` apart, and the derived ``rv`` range."""

    n: int
    private: dict[str, int]
    broadcasts: dict[tuple[str, str], int]
    rv: tuple[int, int]

    def layers(self, rv: int) -> dict[str, int]:
        """``trace.messages_by_layer`` of the run that made ``rv`` batches."""
        layers = Counter({"vss": sum(self.private.values())})
        for (topic, _), count in self.broadcasts.items():
            layers[f"rb.{topic}"] += count * rb(self.n)
        layers["rb.vss"] += rv * rb(self.n)
        return dict(layers)

    def total(self, rv: int) -> int:
        return sum(self.layers(rv).values())


def _times(counts: dict, k: int) -> dict:
    return {key: k * value for key, value in counts.items()}


def mwsvss(n: int, t: int) -> Bill:
    return Bill(
        n,
        private={"shl": n, "mon": n, "mod": 1, "cnf": n * n, "ms": n},
        broadcasts={("vss", "ack"): n, ("vss", "L"): n, ("vss", "M"): 1, ("vss", "ok"): 1},
        rv=(n - t, n),
    )


def svss(n: int, t: int) -> Bill:
    mw = mwsvss(n, t)
    shares = 2 * n * n
    return Bill(
        n,
        private={"rows": n, **_times(mw.private, shares)},
        broadcasts={**_times(mw.broadcasts, shares), ("vss", "G"): 1},
        rv=(2 * (n - t) ** 2 * mw.rv[0], 2 * n * n * mw.rv[1]),
    )


def coin(n: int, t: int) -> Bill:
    sharing = svss(n, t)
    return Bill(
        n,
        private=_times(sharing.private, n * n),
        broadcasts={
            **_times(sharing.broadcasts, n * n),
            ("coin", "att"): n,
            ("coin", "acc"): n,
        },
        rv=(n * (n - t) * sharing.rv[0], n * n * sharing.rv[1]),
    )


BILLS = {"mwsvss": mwsvss, "svss": svss, "coin": coin}


def closed_form(layer: str, n: int) -> int:
    """The FIFO bill written out as one polynomial in n and t (R = 2n² + n
    per RB), which the composed bills above must equal."""
    t, R = (n - 1) // 3, rb(n)
    mw_private = n * n + 3 * n + 1
    svss_private = 2 * n * n * mw_private + n
    svss_shares = 2 * n * n * (2 * n + 2) + 1
    if layer == "mwsvss":
        return mw_private + (3 * n + 2 - t) * R
    if layer == "svss":
        return svss_private + (svss_shares + 2 * (n - t) ** 3) * R
    return n * n * svss_private + (n * n * svss_shares + 2 * n * (n - t) ** 4 + 2 * n) * R


def run(layer: str, config: SystemConfig, scheduler: Scheduler) -> dict[str, int]:
    """``trace.messages_by_layer`` of ``layer``'s entry point under
    ``scheduler`` (dealer 1, moderator 2)."""
    if layer == "mwsvss":
        _, stack = run_mwsvss(config, dealer=1, moderator=2, secret=7, scheduler=scheduler)
    elif layer == "svss":
        _, stack = run_svss(config, dealer=1, secret=7, scheduler=scheduler)
    else:
        _, stack = flip_common_coin(config, scheduler=scheduler)
    layers = dict(stack.trace.messages_by_layer)
    # The entry point stops once every process is done; its count is the
    # whole run's bill only if nothing is sent after that.
    stack.runtime.run_to_quiescence()
    if dict(stack.trace.messages_by_layer) != layers:
        raise AssertionError(f"{layer} n={config.n}: messages sent after the stop")
    return layers


class KindTap(Scheduler):
    """``base`` with every logical message counted by kind on the way.

    Needs the per-message wire (``base`` splits envelopes and slots), so
    each payload is one plain message: a private ``("v", sid, kind, body)``
    or an RB ``("b1" | "b2" | "b3", (origin, topic, session, kind), value)``.
    The tap overrides :meth:`delay`, so a fixed-delay base loses the
    runtime's calendar queue (same order, about half the speed).
    """

    splits_envelopes = splits_slots = True

    def __init__(self, base: Scheduler):
        if not (base.splits_envelopes and base.splits_slots):
            raise ValueError("KindTap needs a per-message scheduler")
        self._base = base
        self.private: Counter = Counter()
        self.rb_messages: Counter = Counter()

    def delay(self, src: int, dst: int, payload: object, now: float) -> float:
        tag = payload[0]
        if tag == "v":
            self.private[payload[2]] += 1
        elif tag in ("b1", "b2", "b3"):
            _, topic, _, kind = payload[1]
            self.rb_messages[topic, kind] += 1
        else:
            raise ValueError(f"unbilled message {tag!r}")
        return self._base.delay(src, dst, payload, now)


def measure(layer: str, config: SystemConfig, scheduler: Scheduler) -> int:
    """Run ``layer`` under ``scheduler`` through a :class:`KindTap`, hold
    every kind's count and every layer's total to the bill, and return the
    number of ``rv`` broadcasts the schedule made."""
    n, tap = config.n, KindTap(scheduler)
    layers = run(layer, config, tap)
    if any(count % rb(n) for count in tap.rb_messages.values()):
        raise AssertionError(f"{layer} n={n}: a broadcast was cut short")
    broadcasts = {key: count // rb(n) for key, count in tap.rb_messages.items()}
    rv = broadcasts.pop(RV, 0)
    bill = BILLS[layer](n, config.t)
    checks = {
        "private": (dict(tap.private), bill.private),
        "broadcasts": (broadcasts, bill.broadcasts),
        "layers": (layers, bill.layers(rv)),
    }
    for name, (seen, billed) in checks.items():
        if seen != billed:
            raise AssertionError(f"{layer} n={n}: {name} {seen} != {billed}")
    if not bill.rv[0] <= rv <= bill.rv[1]:
        raise AssertionError(f"{layer} n={n}: rv {rv} outside {bill.rv}")
    return rv
