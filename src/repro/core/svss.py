"""SVSS — shunning verifiable secret sharing (paper §4).

The dealer shares a random degree-(t, t) bivariate polynomial ``f`` with
``f(0, 0) = s``.  Every ordered pair of processes ``(j, l)`` runs two
MW-SVSS invocations with ``j`` as dealer and ``l`` as moderator — one for
``f(j, l)`` (slot ``"dm"``) and one for ``f(l, j)`` (slot ``"md"``) — so
each matrix entry is dealt twice (once by each side of the pair), giving
the "if either is nonfaulty" leverage of the binding/validity proofs.

Wire messages:

* private ``("v", sid, "rows", (g_values, h_values))`` — dealer hands
  process ``j`` its row ``g_j = f(j, ·)`` and column ``h_j = f(·, j)`` as
  ``t+1`` evaluation points each.
* RB ``("vss", sid, "G", (G, ((j, G_j), ...)))`` — share step 5.

No polynomial object is built: the dealer draws ``f``'s coefficient matrix
and keeps only the values it sends, a process keeps ``g_j`` / ``h_j`` as
value rows over ``0..n``, and R works on the matrix of its children's
outputs (:meth:`SVSSInstance._compute_output`).

Bill: n rows, 2n² MW-SVSS shares, 1 + rv RBs, 2(n-t)³ <= rv <= 2n³
(tests/test_bills.py).
"""

from __future__ import annotations

from operator import mul
from typing import TYPE_CHECKING

from repro.core.mwsvss import BOTTOM, value_rows
from repro.core.sessions import mw_session, svss_dealer
from repro.errors import ProtocolError
from repro.poly.fastpath import evaluate_rows

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import VSSManager


def children(parent: tuple, n: int) -> list[tuple]:
    """The 2n² MW-SVSS session ids of SVSS session ``parent``, in the order
    of their :func:`child_bit` positions."""
    pids = range(1, n + 1)
    return [mw_session(parent, j, l, slot) for j in pids for l in pids for slot in ("md", "dm")]


def child_bit(dealer: int, moderator: int, dm: bool, n: int) -> int:
    """The child's position in :func:`children`: its bit in the parent's
    child masks, its entry in ``mw_outputs``."""
    return ((dealer - 1) * n + moderator - 1) * 2 + dm


def pair_bits(j: int, l: int, n: int) -> int:
    """The mask of :func:`pair_sessions` (two children when ``j == l``)."""
    return 3 << child_bit(j, l, False, n) | 3 << child_bit(l, j, False, n)


def pair_sessions(parent: tuple, j: int, l: int) -> list[tuple]:
    """The four MW-SVSS session ids of the unordered pair ``{j, l}``."""
    return [
        mw_session(parent, j, l, "md"),
        mw_session(parent, j, l, "dm"),
        mw_session(parent, l, j, "md"),
        mw_session(parent, l, j, "dm"),
    ]


class SVSSInstance:
    """One process' state machine for one SVSS session.

    *Lifetime.*  :meth:`release` is the terminal state: it drops the
    session's own working set and releases every child that R will never
    reconstruct.  It is entered at the session's output, and — from the
    common coin — for a completed sharing that no attach set names.  Either
    way ``Ĝ`` is fixed by reliable broadcast, so every honest process
    reconstructs exactly the pair invocations ``Ĝ`` names (or none at all);
    the other children will be reconstructed by nobody, their ACK / DEAL
    expectations can never arm, and they go too.  The children ``Ĝ`` names
    release themselves at their own output, which leaves the session clock
    and the armed debts — the shunning mechanism — untouched.  They are
    told apart by ``Ĝ`` membership, not by whether they began R' yet: the
    output can arrive while ``begin_reconstruct`` is still walking ``Ĝ``
    (a late process finds every needed ``rv`` already delivered), and the
    pair invocations the walk has not reached must still broadcast theirs,
    so the walk pins the sharing in the manager's tables until it ends.
    """

    def __init__(self, manager: "VSSManager", sid: tuple):
        self.manager = manager
        self.sid = sid
        #: the begin stamp and the slot lane, as on ``MWSVSSInstance``
        self.begun = manager.clock.count
        self.lane = None
        self.pid = manager.pid
        self.n = manager.n
        self.t = manager.t
        self.field = manager.field
        self.dealer = svss_dealer(sid)

        # step-2 inputs: our row g and column h as value rows over 0..n
        self.g: tuple[int, ...] | None = None
        self.h: tuple[int, ...] | None = None

        # dealer-only state
        #: recipient -> (g_j(1..t+1), h_j(1..t+1)), filled by share()
        self._row_cache: dict[int, tuple[tuple, tuple]] | None = None
        self.G_map: dict[int, set[int]] = {}
        self.G: set[int] = set()
        self.G_frozen = False

        # broadcast structure
        self.G_hat: tuple[int, ...] | None = None
        self.G_hat_map: dict[int, tuple[int, ...]] = {}

        # Local MW progress, by child_bit: the children whose share completed
        # and whose output arrived, the outputs (a row from the first), and
        # what the share (every pair Ĝ names) and R (their dealer-k two) wait for.
        self.mw_completed = self.mw_reconstructed = 0
        self.mw_outputs: list | None = None
        self._share_needed = self._output_needed = -1  # none is met until Ĝ

        self.share_completed = False
        self.reconstruct_begun = False
        self.ignored: set[int] | None = None  # I_j, fixed at output time
        self.output: object | None = None
        self.released = False

    # ------------------------------------------------------------------
    # local API
    # ------------------------------------------------------------------
    def share(self, secret: int) -> None:
        """Dealer step 1: draw a degree-(t, t) ``f`` with ``f(0, 0) = s``
        and hand each process its row and column values."""
        if self.pid != self.dealer:
            raise ProtocolError(f"{self.pid} is not the dealer of {self.sid}")
        if self._row_cache is not None or self.released:
            raise ProtocolError(f"share already initiated for {self.sid}")
        field = self.field
        t = self.t
        rng = self.manager.config.derive_rng("svss-deal", self.sid)
        # coeffs[i][k] multiplies x^i y^k, drawn row by row with a_00 = s
        # pinned after (paper §4 footnote 2): the order a seed has always
        # dealt in (the hiding tests draw it again).
        coeffs = [field.random_elements(rng, t + 1) for _ in range(t + 1)]
        coeffs[0][0] = field.element(secret)
        pids = range(1, self.n + 1)
        # Two batched passes: the x^i coefficient of f(·, y) at every y,
        # then values[y-1][x-1] = f(x, y) for x, y in 1..n.
        by_y = evaluate_rows(field, coeffs, pids)
        values = evaluate_rows(field, list(zip(*by_y)), pids)
        self._row_cache = {
            j: (
                tuple(values[y][j - 1] for y in range(t + 1)),  # f(j, 1..t+1)
                tuple(values[j - 1][: t + 1]),  # f(1..t+1, j)
            )
            for j in pids
        }
        corrupt = self.manager.host.deviation("corrupt_svss_rows")
        mgr = self.manager
        for j in pids:
            row_vals, col_vals = self._row_cache[j]
            if corrupt is not None:
                row_vals, col_vals = corrupt(
                    self.sid, j, list(row_vals), list(col_vals), field.prime
                )
            mgr.send_value(j, self, "rows", (tuple(row_vals), tuple(col_vals)))

    def begin_reconstruct(self) -> None:
        """Protocol R step 1: reconstruct all pair invocations in Ĝ."""
        if not self.share_completed:
            raise ProtocolError(f"share of {self.sid} not complete at {self.pid}")
        if self.reconstruct_begun or self.released:
            return
        self.reconstruct_begun = True
        # The last needed child can output — which finishes and releases
        # this session — before the walk is over: hold Ĝ's map locally, and
        # keep the sharing from retiring until the walk ends.
        mgr = self.manager
        mgr.pin(self.sid)
        g_hat_map = self.G_hat_map
        for k in self.G_hat or ():
            for l in g_hat_map[k]:
                for mw_sid in pair_sessions(self.sid, k, l):
                    mgr.mw_begin_reconstruct(mw_sid)
        self._maybe_output()
        mgr.pin(self.sid, -1)

    def release(self) -> None:
        """Enter the terminal state (see the class docstring); ``output``,
        ``ignored``, ``G_hat`` and the flags stay readable."""
        if self.released:
            return
        self.released = True
        reconstructed = self._share_needed if self.reconstruct_begun else 0
        mw = self.manager.mw
        for bit, mw_sid in enumerate(children(self.sid, self.n)):
            child = mw.get(mw_sid)
            if child is not None and not reconstructed >> bit & 1:
                child.release()
        self.g = self.h = None
        self._row_cache = None
        self.G_map = self.G = self.G_hat_map = None
        self.mw_outputs = None
        self.manager.session_released(self)

    # ------------------------------------------------------------------
    # message handling (post-DMM)
    # ------------------------------------------------------------------
    def handle(self, src: int, kind: str, body: object) -> None:
        if self.released:
            return
        if kind == "rows":
            self._on_rows(src, body)
        elif kind == "G":
            self._on_g_sets(src, body)

    def _on_rows(self, src: int, body: object) -> None:
        if src != self.dealer or self.g is not None:
            return
        if (
            not isinstance(body, tuple)
            or len(body) != 2
            or not all(self.manager.is_value_tuple(part, self.t + 1) for part in body)
        ):
            return
        self.g, self.h = value_rows(self.field, self.n, self.t, body)
        self._participate()

    def _participate(self) -> None:
        """Step 2: enter the four MW-SVSS invocations with every peer.

        As dealer we share ``f(l, j) = h_j(l)`` (slot md) and
        ``f(j, l) = g_j(l)`` (slot dm); as moderator for peer ``l`` we
        expect ``f(j, l) = g_j(l)`` (slot md, since we are the moderator)
        and ``f(l, j) = h_j(l)`` (slot dm).

        Deviation from the paper's literal text (which pairs ``l != j``):
        the *self-pair* ``l = j`` is included — its two degenerate
        invocations share ``f(j, j)`` with ``j`` moderating itself.
        Without it, ``|G_j| >= n - t`` is unreachable whenever ``t``
        processes stay silent (each honest process has only ``n - t - 1``
        live partners), so Validity of Termination would fail in exactly
        the runs it must cover.  All the §4 proofs go through unchanged:
        ``G_k`` still provides ``>= n - t`` evaluation points per row with
        ``>= t + 1`` of them honest.
        """
        j = self.pid
        g, h = self.g, self.h
        mgr = self.manager
        for l in range(1, self.n + 1):
            mgr.mw_share(mw_session(self.sid, j, l, "md"), h[l])
            mgr.mw_share(mw_session(self.sid, j, l, "dm"), g[l])
            mgr.mw_moderate(mw_session(self.sid, l, j, "md"), g[l])
            mgr.mw_moderate(mw_session(self.sid, l, j, "dm"), h[l])

    # -- dealer bookkeeping (steps 3-5) --------------------------------------
    def on_mw_share_complete(self, mw_sid: tuple) -> None:
        if self.released:
            return
        self.mw_completed |= 1 << child_bit(mw_sid[2], mw_sid[3], mw_sid[4] == "dm", self.n)
        if self.pid == self.dealer and not self.G_frozen:
            self._dealer_track_pair(mw_sid)
        self._maybe_complete_share()

    def _dealer_track_pair(self, mw_sid: tuple) -> None:
        # Done once its four invocations (two for a self-pair) completed.
        j, l = sorted(mw_sid[2:4])
        if pair_bits(j, l, self.n) & ~self.mw_completed:
            return
        self.G_map.setdefault(j, set()).add(l)
        self.G_map.setdefault(l, set()).add(j)
        for member in (j, l):
            if member not in self.G and len(self.G_map[member]) >= self.n - self.t:
                self.G.add(member)
        if len(self.G) >= self.n - self.t:
            self._freeze_g()

    def _freeze_g(self) -> None:
        """Step 5: broadcast ``G`` and its per-member confirmation sets."""
        self.G_frozen = True
        g_sorted = tuple(sorted(self.G))
        body = (
            g_sorted,
            tuple((j, tuple(sorted(self.G_map[j]))) for j in g_sorted),
        )
        self.manager.rb_broadcast(self, "G", body)

    # -- step 6 ------------------------------------------------------------------
    def _on_g_sets(self, src: int, body: object) -> None:
        if src != self.dealer or self.G_hat is not None:
            return
        parsed = self._parse_g_sets(body)
        if parsed is None:
            return
        self.G_hat, self.G_hat_map = parsed
        self._share_needed = self._output_needed = 0
        for k in self.G_hat:
            for l in self.G_hat_map[k]:
                self._share_needed |= pair_bits(k, l, self.n)
                self._output_needed |= 3 << child_bit(k, l, False, self.n)
        self._maybe_complete_share()

    def _parse_g_sets(
        self, body: object
    ) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]] | None:
        if not isinstance(body, tuple) or len(body) != 2:
            return None
        g_set, per_member = body
        pid_set = self.manager.pid_set
        if pid_set(g_set) is None or len(g_set) < self.n - self.t:
            return None
        if not isinstance(per_member, tuple) or len(per_member) != len(g_set):
            return None
        g_map: dict[int, tuple[int, ...]] = {}
        for item in per_member:
            if not isinstance(item, tuple) or len(item) != 2:
                return None
            j, members = item
            if j not in g_set or pid_set(members) is None:
                return None
            if len(members) < self.n - self.t:
                return None
            g_map[j] = members
        if set(g_map) != set(g_set):
            return None
        return tuple(g_set), g_map

    def _maybe_complete_share(self) -> None:
        if self.share_completed or self._share_needed & ~self.mw_completed:
            return
        self.share_completed = True
        self.manager.notify_svss_share_complete(self.sid)

    # ------------------------------------------------------------------
    # reconstruct (steps 2-3 of R)
    # ------------------------------------------------------------------
    def on_mw_output(self, mw_sid: tuple, value: object) -> None:
        # A child that began R' without being needed for the output (the
        # far half of a pair) may finish after its parent did.
        if self.released:
            return
        bit = child_bit(mw_sid[2], mw_sid[3], mw_sid[4] == "dm", self.n)
        if self.mw_outputs is None:
            self.mw_outputs = [None] * (2 * self.n * self.n)
        self.mw_outputs[bit] = value
        self.mw_reconstructed |= 1 << bit
        self._maybe_output()

    def _maybe_output(self) -> None:
        # Need the two dealer-k invocations of every (k, l) pair.
        if self.output is not None or not self.reconstruct_begun:
            return
        if self._output_needed & ~self.mw_reconstructed:
            return
        self._compute_output()

    def _compute_output(self) -> None:
        """Steps 2-3 of R on the matrix of the children's outputs.

        A fitted row ``g_k`` / column ``h_k`` is kept as its values at
        ``0..n``, so every check is an index: ``h_k(l) = cols[k][l]``, and
        ``f̄(k, l)`` is ``λ(k)`` of the head rows' basis dotted with their
        values at ``l``.  Any ``t + 1`` survivors determine the same ``f̄``
        whenever the checks pass (and the checks fail for every choice
        otherwise), so the head is the lowest ``t + 1``, keyed by mask.
        """
        mgr = self.manager
        t, n = self.t, self.n
        points = range(n + 1)
        outputs = self.mw_outputs
        # Step 2: the ignore set I_j.
        ignored: set[int] = set()
        rows: dict[int, list[int]] = {}
        cols: dict[int, list[int]] = {}
        for k in self.G_hat:
            members = sorted(self.G_hat_map[k])
            # r_{k,k,l} ~ g_k(l) = f(k, l) and r_{k,l,k} ~ h_k(l) = f(l, k)
            row_values = [outputs[child_bit(k, l, True, n)] for l in members]
            col_values = [outputs[child_bit(k, l, False, n)] for l in members]
            if BOTTOM in row_values or BOTTOM in col_values:
                ignored.add(k)
                continue
            g_k = mgr.fit(members, row_values, points)
            h_k = mgr.fit(members, col_values, points)
            if g_k is None or h_k is None:
                ignored.add(k)
                continue
            rows[k] = g_k
            cols[k] = h_k
        self.ignored = ignored
        survivors = [k for k in self.G_hat if k not in ignored]

        # Step 3: cross-consistency, then f̄ through t + 1 rows.
        for k in survivors:
            col = cols[k]
            for l in survivors:
                if col[l] != rows[l][k]:
                    self._finish(BOTTOM)
                    return
        if len(survivors) < t + 1:
            self._finish(BOTTOM)
            return
        head = sorted(survivors)[: t + 1]
        mask = 0
        for k in head:
            mask |= 1 << k
        lam = mgr.basis(mask).evaluation_row
        head_at = list(zip(*(rows[k] for k in head)))  # [x] = head rows at x
        prime = self.field.prime
        # f̄(k, ·) is g_k itself on a head row; the cross-check above
        # already made h_l(k) == g_k(l), so f̄(k, l) == g_k(l) is the check.
        for k in survivors:
            if k in head:
                continue
            lam_k = lam(k)
            row = rows[k]
            for l in survivors:
                if sum(map(mul, lam_k, head_at[l])) % prime != row[l]:
                    self._finish(BOTTOM)
                    return
        self._finish(sum(map(mul, lam(0), head_at[0])) % prime)

    def _finish(self, value: object) -> None:
        self.output = value
        self.manager.notify_svss_output(self.sid, value)
        self.release()
