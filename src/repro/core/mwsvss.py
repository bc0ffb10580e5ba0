"""MW-SVSS — moderated weak shunning verifiable secret sharing (paper §3.2).

One :class:`MWSVSSInstance` is one process' view of one MW-SVSS session
``(c, dealer)`` with a designated moderator.  The share protocol ``S'`` and
reconstruct protocol ``R'`` follow the paper step by step; comments carry
the paper's step numbers.

Wire messages (``sid`` is the session id):

private (``("v", sid, kind, body)``):

* ``"shl"`` dealer → j: the share vector ``(f_1(j), ..., f_n(j))``.
* ``"mon"`` dealer → l: the monitor polynomial ``f_l`` as values
  ``f_l(1..t+1)``.
* ``"mod"`` dealer → moderator: ``f`` as values ``f(1..t+1)``.
* ``"cnf"`` j → l: confirmation value ``f̂^j_l`` (j's share of ``f_l``).
* ``"ms"``  j → moderator: ``f̂_j(0)`` (j's monitored point of ``f``).

reliable broadcast (``("vss", sid, kind, body)``):

* ``"ack"`` — step 2 public acknowledgement.
* ``"L"``   — step 4, the frozen confirmer set ``L_j``.
* ``"M"``   — step 6, the moderator's frozen monitor set ``M``.
* ``"ok"``  — step 7, the dealer's go-ahead.
* ``"rv"``  — reconstruct step 1, batched values ``((monitor, value), ...)``.

Every polynomial is only ever evaluated, at points of ``{0..n}``, and each
value is held once: the dealer keeps only the ``shl`` columns it sent, the
monitor's ``f̂_j`` and the moderator's ``f̂`` stay the dealer's values
``f(1..t+1)`` (any other point is one dot product, :func:`point`), a
confirm value leaves a bit, an ``rv`` batch stays its wire tuple
(:func:`rv_value`), and R' reads ``f̄_l(0)`` and ``f̄(0)`` off bases looked
up by pid mask (``VSSManager.basis`` / ``.fit``).  The DMM's expectations
are masks over the dealer's columns and the monitor's ``f̂_j``, and steps 3
and 7 hand it the sender's batch from ``rv_batches``, the one record of it.

Bill: n²+3n+1 private, 3n+2+rv RBs, n-t <= rv <= n (tests/test_bills.py).
"""

from __future__ import annotations

from functools import cache
from operator import mul
from typing import TYPE_CHECKING

from repro.errors import ProtocolError
from repro.field.gf import Field
from repro.poly.fastpath import evaluate_many, evaluate_rows, lagrange_basis

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import VSSManager


class _Bottom:
    """The default value ⊥ of weak binding (paper §2.2)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"


BOTTOM = _Bottom()


@cache
def _nodes(prime: int, t: int):  # keyed by the int: no ``Field.__hash__`` per point
    """The basis of the nodes ``1..t+1`` every received polynomial is given at."""
    return lagrange_basis(Field(prime), range(1, t + 2))


def point(field: Field, t: int, values, x: int) -> int:
    """``f(x)`` of the degree-``t`` polynomial with values ``f(1..t+1)`` (the
    first ``t+1`` entries of ``values``): an entry at a node, else one dot
    product with the nodes' cached evaluation row, no coefficient vector."""
    if 0 < x <= t + 1:
        return values[x - 1]
    return sum(map(mul, values, _nodes(field.prime, t).evaluation_row(x))) % field.prime


def rv_value(batch: tuple[int, tuple], monitor: int) -> int | None:
    """``monitor``'s value in a batch from ``VSSManager.parse_rv``, or ``None``:
    the entry's position is the popcount of the monitor mask below it."""
    mask, entries = batch
    if not mask >> monitor & 1:
        return None
    return entries[(mask & ((1 << monitor) - 1)).bit_count()][1]


def value_rows(field: Field, n: int, t: int, bodies: list) -> list[tuple[int, ...]]:
    """``f(0..n)`` of every degree-``t`` polynomial given by its values
    ``f(1..t+1)`` (one half of an SVSS ``"rows"`` body)."""
    return [tuple(point(field, t, body, x) for x in range(n + 1)) for body in bodies]


class MWSVSSInstance:
    """One process' state machine for one MW-SVSS session.

    *Lifetime.*  Each container lives as long as the step that reads it:
    ``monitor_row`` (f̂_j) from ``mon``, the confirm masks to the ``L_j``
    freeze (step 4), an early confirm value until ``mon``; ``L_hat`` is
    never private: an immutable row that each ``L̂`` replaces with the one
    ``VSSManager.row_with`` interns (the manager's empty row before), so
    siblings that received the same sets hold one object; at the
    moderator ``moderator_row`` (f̂) and ``moderator_shares`` to the ``M``
    freeze (step 6); ``rv_batches``, ``K`` (sender masks) and ``f_bar`` from
    :meth:`begin_reconstruct` or the first ``rv`` to output; the rest to
    :meth:`release`, the terminal state, entered at output (R' step 4) or
    when the parent learns that nobody will reconstruct.  Nothing is owed
    after output: ``M̂``, every ``L̂_l`` (l ∈ M̂) and the dealer's OK are
    public by RB totality, ``rv`` went out at :meth:`begin_reconstruct`,
    and DEAL / ACK expectations are only added before share completion.  A
    released instance ignores every message (read an outcome off the
    watcher).  What must outlive it — convicting or clearing a late ``rv``
    against a debt — lives in the DMM, which the manager consults first,
    with what that reads: the ledger keeps the ``mon`` body past the ``L``
    freeze (its DEAL row) and ``_deal_rows`` past release (its ACK rows).
    """

    # 33 attributes: without __slots__ they overflow CPython's shared-key
    # dict limit and every instance (2n² per SVSS session) carries a
    # private dict several times the size of the state it holds.  Per-pid
    # facts are words and rows for the same reason: a set of pids is an
    # ``int`` bitmask (bit p ⇔ pid p), a pid → value map a list indexed by pid.
    # ``pid`` / ``n`` / ``t`` / ``field`` are read off ``manager``, never
    # copied; the dealer is ``sid[2]``, the moderator ``sid[3]``.
    __slots__ = (
        "manager",
        "sid",
        "begun",
        "lane",
        "share_vector",
        "monitor_row",
        "_step2_done",
        "heard",
        "confirmed",
        "_early_confirms",
        "acks",
        "L",
        "L_frozen",
        "_deal_suppressed",
        "moderator_row",
        "moderator_expected",
        "moderator_shares",
        "M",
        "M_frozen",
        "L_hat",
        "M_hat",
        "ok_received",
        "_deal_rows",
        "_dealer_acked",
        "share_completed",
        "reconstruct_begun",
        "_rv_sent",
        "rv_batches",
        "_rv_dirty",
        "K",
        "f_bar",
        "output",
        "released",
    )

    def __init__(self, manager: "VSSManager", sid: tuple):
        self.manager = manager
        self.sid = sid
        #: the begin stamp: the session clock's count at creation (→_i)
        self.begun = manager.clock.count
        #: the slot lane, from the first vector or offer (``VSSManager.join_lane``)
        self.lane = None

        # step 1-2 inputs
        self.share_vector: tuple[int, ...] | None = None  # (f̂^j_1 .. f̂^j_n)
        #: f̂_j(1..t+1), the dealer's body, until L_j freezes (step 4 drops it)
        self.monitor_row: tuple[int, ...] | None = None
        self._step2_done = False

        # step 3-4 (monitor bookkeeping): masks of the confirmers heard (the
        # first ``cnf`` wins) and of those whose value is f̂_j(l); ``(l, value)``
        # pairs heard before ``f̂_j``, in arrival order, until ``mon``
        self.heard = self.confirmed = 0
        self._early_confirms: tuple[tuple[int, int], ...] = ()
        self.acks = 0  # mask: processes whose ack RB-delivered
        self.L = 0  # mask
        self.L_frozen = False
        # step 8 applies from the moment M̂ excludes us: no further DEAL
        # expectations may be recorded for this session (a late confirmer's
        # expectation could never be discharged — see Lemma 1(b)).
        self._deal_suppressed = False

        # moderator state
        #: f̂(1..t+1), the dealer's body, then f̂(0), read once at receipt
        #: (``point`` never reads past the body); until M freezes (step 6)
        self.moderator_row: tuple[int, ...] | None = None
        self.moderator_expected: int | None = None  # s' (set via moderate())
        #: j -> f̂^j_0 in arrival order, at the moderator until M freezes
        self.moderator_shares = {} if manager.pid == sid[3] else None
        self.M = 0  # mask, moderator only
        self.M_frozen = False

        # broadcast sets received; an interned row, replaced at each write
        self.L_hat = manager.empty_masks  # [j] = mask of L̂_j, 0 until broadcast
        self.M_hat: frozenset[int] | None = None
        self.ok_received = False

        # dealer state
        #: the ``shl`` columns sent: [j][l - 1] = f_l(j) for j, l in 1..n ([0] None)
        self._deal_rows: tuple | None = None
        self._dealer_acked = False  # step 7 done

        self.share_completed = False

        # reconstruct state; the three containers are allocated by
        # _open_reconstruct (at begin_reconstruct or the first ``rv``)
        self.reconstruct_begun = False
        self._rv_sent = False
        self.rv_batches: dict[int, tuple] | None = None  # sender -> first parsed batch
        #: Mask of the senders whose batches ``_consume_rv_batches`` re-scans:
        #: fresh arrivals, or every sender (-1) after ``L̂``/``M̂`` widen eligibility
        self._rv_dirty = 0
        self.K: list[int] | None = None  # [l] = mask of the senders in K_l
        self.f_bar: list | None = None  # [l] = f̄_l(0) (free term), None until K_l fills
        self.output: int | _Bottom | None = None
        self.released = False

    # ------------------------------------------------------------------
    # local API
    # ------------------------------------------------------------------
    def share(self, secret: int) -> None:
        """Dealer step 1: draw ``f`` and ``f_1..f_n`` (degree ``t``, ``f(0) =
        s``, ``f_l(0) = f(l)``), distribute the shares, and keep only the
        share columns (every ACK expectation reads one)."""
        mgr = self.manager
        if mgr.pid != self.sid[2]:
            raise ProtocolError(f"{mgr.pid} is not the dealer of {self.sid}")
        if self._deal_rows is not None or self.released:
            raise ProtocolError(f"share already initiated for {self.sid}")
        field, t = mgr.field, mgr.t
        rng = mgr.config.derive_rng("mw-deal", self.sid)
        points = range(1, mgr.n + 1)
        # Coefficients drawn low degree first, f's before f_1's before
        # f_2's, each constant term then pinned after its draw: the order a
        # seed has always dealt in (the hiding tests draw it again).
        draws = field.random_elements(rng, (mgr.n + 1) * (t + 1))
        f_coeffs, *subs = [draws[i : i + t + 1] for i in range(0, len(draws), t + 1)]
        f_coeffs[0] = field.element(secret)
        f = evaluate_many(field, f_coeffs, points)  # f(1..n)
        for sub, f_l in zip(subs, f):
            sub[0] = f_l
        # One batched multi-point pass: rows[l - 1] == f_l(1..n)
        rows = evaluate_rows(field, subs, points)
        self._deal_rows = cols = (None, *zip(*rows))  # cols[j] == (f_1(j), ..., f_n(j))

        corrupt_values = mgr.host.deviation("corrupt_mw_share_values")
        for j in points:
            values = cols[j]
            if corrupt_values is not None:
                values = tuple(corrupt_values(self.sid, j, list(values), field.prime))
            mgr.send_value(j, self, "shl", values)
        for l in points:
            mgr.send_value(l, self, "mon", tuple(rows[l - 1][: t + 1]))
        mgr.send_value(self.sid[3], self, "mod", tuple(f[: t + 1]))

    def moderate(self, expected: int) -> None:
        """Install the moderator's input value ``s'`` (enables step 5)."""
        if self.manager.pid != self.sid[3]:
            raise ProtocolError(f"{self.manager.pid} is not the moderator of {self.sid}")
        if self.moderator_expected is not None or self.released:
            return
        self.moderator_expected = expected % self.manager.field.prime
        self._recheck_moderator()

    def begin_reconstruct(self) -> None:
        """Start protocol R' (requires a locally completed share)."""
        if not self.share_completed:
            raise ProtocolError(f"share of {self.sid} not complete at {self.manager.pid}")
        if self.reconstruct_begun or self.released:
            return
        self.reconstruct_begun = True
        self._open_reconstruct()
        self._send_reconstruct_values()
        self._consume_rv_batches()
        self._maybe_output()

    def release(self) -> None:
        """Enter the terminal state: drop the working set, keep the flags,
        ``output`` and ``M_hat`` (see the class docstring).  The DMM forgets
        the session unless its reconstruct completed here, in which case
        its pending expectations are debts and stay."""
        if self.released:
            return
        self.released = True
        self.share_vector = self.monitor_row = self._early_confirms = self._deal_rows = None
        self.moderator_row = self.moderator_expected = self.moderator_shares = None
        self.L_hat = self.rv_batches = self.K = self.f_bar = None
        self.manager.session_released(self)

    # ------------------------------------------------------------------
    # message handling (post-DMM)
    # ------------------------------------------------------------------
    def handle(self, src: int, kind: str, body: object, batch: object = None) -> None:
        if self.released:
            return
        # ``batch`` is for ``rv`` alone: what ``VSSManager.parse_rv`` made of
        # the body (``None``: dropped).
        # Ordered by per-invocation frequency: the O(n)-per-party kinds
        # (confirm/ack/L-set/reconstruct) before the once-per-session ones.
        if kind == "cnf":
            self._on_confirm(src, body)
        elif kind == "ack":
            self._on_ack(src)
        elif kind == "L":
            self._on_l_set(src, body)
        elif kind == "rv":
            self._on_reconstruct_values(src, batch)
        elif kind == "ms":
            self._on_moderator_share(src, body)
        elif kind == "shl":
            self._on_share_vector(src, body)
        elif kind == "mon":
            self._on_monitor_poly(src, body)
        elif kind == "mod":
            self._on_moderator_poly(src, body)
        elif kind == "M":
            self._on_m_set(src, body)
        elif kind == "ok":
            self._on_ok(src)

    # -- share phase -----------------------------------------------------
    def _on_share_vector(self, src: int, body: object) -> None:
        if src != self.sid[2] or self.share_vector is not None:
            return
        if not self.manager.is_value_tuple(body, self.manager.n):
            return
        self.share_vector = tuple(body)
        self._maybe_step2()

    def _on_monitor_poly(self, src: int, body: object) -> None:
        # A frozen L_j means f̂_j arrived and was dropped: still a duplicate.
        if src != self.sid[2] or self.monitor_row is not None or self.L_frozen:
            return
        if not self.manager.is_value_tuple(body, self.manager.t + 1):
            return
        self.monitor_row = body
        self._maybe_step2()
        early, self._early_confirms = self._early_confirms, ()
        for l, value in early:
            if not self.L_frozen and value == point(self.manager.field, self.manager.t, body, l):
                self.confirmed |= 1 << l
                self._maybe_step3(l)

    def _maybe_step2(self) -> None:
        """Step 2: confirm privately to every monitor and ack publicly."""
        if self._step2_done or self.share_vector is None:
            return
        if self.monitor_row is None and not self.L_frozen:
            return  # f̂_j not received yet
        self._step2_done = True
        mgr = self.manager
        corrupt = mgr.host.deviation("corrupt_mw_confirm_value")
        for l in range(1, mgr.n + 1):
            value = self.share_vector[l - 1]
            if corrupt is not None:
                value = corrupt(self.sid, l, value, mgr.field.prime)
            mgr.send_value(l, self, "cnf", value)
        mgr.rb_broadcast(self, "ack", None)

    def _on_confirm(self, src: int, body: object) -> None:
        # A frozen L_j ended step 3: a late value has nothing left to meet.
        bit = 1 << src
        if self.L_frozen or self.heard & bit or not self.manager.field.is_element(body):
            return
        self.heard |= bit
        row = self.monitor_row
        if row is None:
            self._early_confirms += ((src, body),)  # checked when f̂_j arrives
        elif body == point(self.manager.field, self.manager.t, row, src):
            self.confirmed |= bit
            self._maybe_step3(src)

    def _on_ack(self, src: int) -> None:
        # The hottest handler (one call per party per session per party):
        # each follow-up's cheap first guard is hoisted inline so settled
        # steps cost a comparison instead of a call.
        bit = 1 << src
        if self.acks & bit:
            return
        self.acks |= bit
        if self.monitor_row is not None:
            self._maybe_step3(src)
        pid, sid = self.manager.pid, self.sid
        if pid == sid[3] and not self.M_frozen:
            self._recheck_moderator()
        if pid == sid[2] and not self._dealer_acked:
            self._maybe_step7()
        if not self.share_completed and self.ok_received:
            self._maybe_complete_share()

    def _maybe_step3(self, l: int) -> None:
        """Step 3: record confirmer ``l`` once its value matched ``f̂_j(l)``
        (its ``confirmed`` bit) and its ack arrived.

        Additions stop once ``L_j`` is frozen by its broadcast (step 4) —
        the reconstruct duty map is derived from the broadcast sets, so
        later additions could never be cleared.  The freeze drops
        ``monitor_row``, so one ``None`` test covers both.
        """
        row = self.monitor_row
        if row is None:
            return
        bit = 1 << l
        if self.L & bit or not self.confirmed & self.acks & bit:
            return
        self.L |= bit
        if not self._deal_suppressed:
            self.manager.dmm.expect_deal(l, self.sid, row, (self.rv_batches or {}).get(l))
        if self.L.bit_count() >= self.manager.n - self.manager.t:
            self._freeze_l()

    def _freeze_l(self) -> None:
        """Step 4: broadcast ``L_j`` and send ``f̂_j(0)`` to the moderator;
        step 3 is over, so ``f̂_j`` and the confirm masks are dropped."""
        manager = self.manager
        free_term = point(manager.field, manager.t, self.monitor_row, 0)
        self.L_frozen, self.monitor_row, self._early_confirms = True, None, ()
        self.heard = self.confirmed = 0
        manager.rb_broadcast(self, "L", manager.pids_of(self.L))
        manager.send_value(self.sid[3], self, "ms", free_term)

    # -- moderator ---------------------------------------------------------
    def _on_moderator_poly(self, src: int, body: object) -> None:
        # A frozen M means f̂ arrived and was dropped: still a duplicate.
        mgr = self.manager
        if mgr.pid != self.sid[3] or self.moderator_row is not None or self.M_frozen:
            return
        if src == self.sid[2] and mgr.is_value_tuple(body, mgr.t + 1):
            self.moderator_row = (*body, point(mgr.field, mgr.t, body, 0))
            self._recheck_moderator()

    def _on_moderator_share(self, src: int, body: object) -> None:
        shares = self.moderator_shares  # None off the moderator and once M froze
        if shares is None or src in shares or not self.manager.field.is_element(body):
            return
        shares[src] = body
        self._recheck_moderator(only=src)

    def _recheck_moderator(self, only: int | None = None) -> None:
        """Step 5: admit monitors whose data matches ``f̂`` and ``s'``."""
        row = self.moderator_row  # None off the moderator, until f̂ and once M froze
        if row is None or row[-1] != self.moderator_expected:
            return  # s' not installed yet, or f̂(0) disagrees: never admit anyone
        mgr = self.manager
        candidates = [only] if only is not None else list(self.moderator_shares)
        for j in candidates:
            if self.M >> j & 1 or j not in self.moderator_shares:
                continue
            l_hat = self.L_hat[j]
            if not l_hat or l_hat & ~self.acks:
                continue
            if self.moderator_shares[j] != point(mgr.field, mgr.t, row, j):
                continue
            self.M |= 1 << j
            if self.M.bit_count() >= mgr.n - mgr.t:
                self._freeze_m()
                break

    def _freeze_m(self) -> None:
        """Step 6: broadcast the frozen monitor set ``M``; step 5 is over,
        so ``f̂`` and the monitors' shares are dropped."""
        self.M_frozen = True
        self.moderator_row = self.moderator_shares = None
        self.manager.rb_broadcast(self, "M", self.manager.pids_of(self.M))

    # -- broadcast sets ------------------------------------------------------
    def _on_l_set(self, src: int, body: object) -> None:
        l_hat = self.L_hat
        if l_hat[src]:
            return
        mgr = self.manager
        pids = mgr.pid_set(body)
        if pids is None or len(pids[0]) < mgr.n - mgr.t:
            return
        self.L_hat = mgr.row_with(l_hat, src, pids[1])
        if self.rv_batches:
            self._rv_dirty = -1  # every sender whose batch has arrived
        pid, sid = mgr.pid, self.sid
        if pid == sid[3] and not self.M_frozen:
            self._recheck_moderator(only=src)
        if pid == sid[2] and not self._dealer_acked:
            self._maybe_step7()
        if not self.share_completed and self.ok_received:
            self._maybe_complete_share()
        if self._rv_dirty and self.M_hat is not None:
            self._consume_rv_batches()
            self._maybe_output()

    def _on_m_set(self, src: int, body: object) -> None:
        if src != self.sid[3] or self.M_hat is not None:
            return
        mgr = self.manager
        pids = mgr.pid_set(body)
        if pids is None or len(pids[0]) < mgr.n - mgr.t:
            return
        self.M_hat = pids[0]
        if self.rv_batches:
            self._rv_dirty = -1
        # Step 8: not being in M̂ means nobody will reconstruct our
        # monitored polynomial — drop the matching expectations and stop
        # recording new ones (reconstruct broadcasts only cover M̂ members,
        # so a late confirmer's expectation could never be discharged).
        if mgr.pid not in self.M_hat:
            self._deal_suppressed = True
            mgr.dmm.drop_deal_expectations(self.sid)
        if mgr.pid == self.sid[2] and not self._dealer_acked:
            self._maybe_step7()
        if not self.share_completed and self.ok_received:
            self._maybe_complete_share()
        if self._rv_dirty:
            self._consume_rv_batches()
            self._maybe_output()

    def _on_ok(self, src: int) -> None:
        if src != self.sid[2] or self.ok_received:
            return
        self.ok_received = True
        self._maybe_complete_share()

    # -- dealer step 7 ------------------------------------------------------------
    def _maybe_step7(self) -> None:
        if self.manager.pid != self.sid[2] or self._dealer_acked:
            return
        if self._deal_rows is None or not self._m_hat_acked():
            return
        self._dealer_acked = True
        dmm, batches = self.manager.dmm, self.rv_batches or {}
        for j in self.M_hat:
            for l in self.manager.pids_of(self.L_hat[j]):
                dmm.expect_ack(l, self.sid, j, self._deal_rows, batches.get(l))
        self.manager.rb_broadcast(self, "ok", None)

    def _m_hat_acked(self) -> bool:
        """``M̂`` arrived, every ``L̂_l`` (l ∈ M̂) too, and all their members' acks."""
        m_hat, l_hat, unacked = self.M_hat, self.L_hat, ~self.acks
        return m_hat is not None and all(l_hat[l] and not l_hat[l] & unacked for l in m_hat)

    # -- step 9 -----------------------------------------------------------------
    def _maybe_complete_share(self) -> None:
        if self.share_completed or not self.ok_received or not self._m_hat_acked():
            return
        self.share_completed = True
        self.manager.notify_mw_share_complete(self.sid)

    # ------------------------------------------------------------------
    # reconstruct protocol R'
    # ------------------------------------------------------------------
    def _open_reconstruct(self) -> None:
        if self.rv_batches is None:
            self.rv_batches = {}
            self.K = [0] * (self.manager.n + 1)
            self.f_bar = [None] * (self.manager.n + 1)

    def _send_reconstruct_values(self) -> None:
        """R' step 1: broadcast our dealer-given share of ``f_l`` for every
        monitor ``l ∈ M̂`` whose broadcast confirmer set contains us."""
        if self._rv_sent or self.share_vector is None:
            return
        mgr = self.manager
        me = 1 << mgr.pid
        shares = self.share_vector
        batch = {l: shares[l - 1] for l in self.M_hat or () if self.L_hat[l] & me}
        if not batch:
            return
        self._rv_sent = True
        corrupt = mgr.host.deviation("corrupt_mw_reconstruct_values")
        if corrupt is not None:
            batch = corrupt(self.sid, batch, mgr.field.prime)
        mgr.rb_broadcast(self, "rv", tuple(sorted(batch.items())))

    def _on_reconstruct_values(self, src: int, batch: tuple | None) -> None:
        if batch is None:
            return  # every ``rv`` comes parsed, through the manager's DMM check
        self._open_reconstruct()
        if src in self.rv_batches:
            return
        self.rv_batches[src] = batch
        self._rv_dirty |= 1 << src
        self._consume_rv_batches()
        self._maybe_output()

    def _consume_rv_batches(self) -> None:
        """R' steps 2-3: gather t+1 points per monitor, then interpolate.

        ``K[l]`` is a sender mask: bit k means sender k's point on ``f̄_l``
        is in ``K_l``.  Only dirty senders' batches are scanned, in arrival
        order, so the same ``t + 1`` points win as in a full rescan: every
        change of ``L̂`` / ``M̂``, the only other input, re-dirties them all.
        """
        if self.M_hat is None or not self._rv_dirty:
            return
        dirty, self._rv_dirty = self._rv_dirty, 0
        mgr = self.manager
        m_hat, l_hat, K, t = self.M_hat, self.L_hat, self.K, mgr.t
        for sender, batch in self.rv_batches.items():
            bit = 1 << sender
            if not dirty & bit:
                continue
            for l in mgr.pids_of(batch[0]):  # the batch's monitors, ascending
                points = K[l]
                if points & bit or points.bit_count() > t or l not in m_hat:
                    continue
                if l_hat[l] & bit:
                    K[l] = points = points | bit
                    if points.bit_count() > t:
                        self._interpolate_f_bar(l, points)

    def _interpolate_f_bar(self, l: int, mask: int) -> None:
        # f̄_l is only ever evaluated at 0 (R' step 4): one dot product of
        # the senders' points, ascending by pid, with the λ(0) row of the
        # basis the manager keys by the same mask.  Sender sets repeat
        # across monitors and sessions.
        manager = self.manager
        values = [rv_value(self.rv_batches[k], l) for k in manager.pids_of(mask)]
        zero = manager.basis(mask).evaluation_row(0)
        self.f_bar[l] = sum(map(mul, values, zero)) % manager.field.prime

    def _maybe_output(self) -> None:
        """R' step 4: fit ``f̄`` through the monitors' free terms, read
        ``f̄(0)``; ⊥ when they lie on no polynomial of degree ``t``."""
        if self.output is not None or not self.reconstruct_begun:
            return
        f_bar = self.f_bar
        if self.M_hat is None or any(f_bar[l] is None for l in self.M_hat):
            return
        monitors = sorted(self.M_hat)
        value = self.manager.fit(monitors, [f_bar[l] for l in monitors], (0,))
        self.output = value[0] if value is not None else BOTTOM
        self.manager.notify_mw_output(self.sid, self.output)
        self.release()


class GroupLane:
    """Probe shim: the slot-vector batch decode is gone; this name is not.

    ``benchmarks/e2e/layerprobe.py`` (``METHOD_SEAMS``) patches the two
    method names below, and ``benchmarks/e2e/test_harness.py`` fails the
    traced run (``probe_missing == []``) when one is missing.  Nothing in
    ``src/`` calls the class: each ``mon`` / ``mod`` / ``rows`` body is
    checked and decoded by its handler.  ROADMAP item 6(a) deletes it.
    """

    def monitor_polys(self):
        raise NotImplementedError

    def row_polys(self):
        raise NotImplementedError
