"""Session identifiers and the per-process session partial order ``→_i``.

The paper (§2) tags every VSS invocation with a session id and defines
``(c, i) →_j (c', i')`` iff process ``j`` completed the reconstruct of
session ``(c, i)`` before it began the share of session ``(c', i')``.  The
DMM delay rule is expressed in terms of this order.

Session ids here are hashable tuples:

* MW-SVSS: ``("mw", parent, dealer, moderator, slot)`` — ``parent`` ties the
  invocation to its enclosing SVSS session (or ``("solo", c)`` for direct
  use); ``slot`` distinguishes the two dealings per ordered pair in SVSS
  (``"dm"`` shares ``f(dealer, moderator)``, ``"md"`` shares
  ``f(moderator, dealer)``).
* SVSS: ``("svss", tag, dealer)`` — ``tag`` is the caller's context (a
  counter, or ``(coin_session, slot)`` inside the common coin).

Slot-vector groups
------------------
The common coin runs one SVSS session per ``(dealer, slot)`` with
``slot ∈ 1..n`` and tag ``(csid, slot)``; every session of one dealer
follows the same step schedule, so the session-vector transport
(:mod:`repro.core.vectormux`) aggregates their messages per *group* — the
session id with the slot stripped out:

* SVSS ``("svss", (csid, slot), d)``          ↔ group ``("s", csid, d)``
* MW ``("mw", ("svss", (csid, slot), d), j, l, ms)``
                                              ↔ group ``("m", csid, d, j, l, ms)``

:func:`svec_split` maps a session id to its ``(group, slot)`` (for
*registered* coin families only, so ordinary tags like
``("solo-svss", 0)`` are never mistaken for a slot), and
:func:`svec_sid` inverts the mapping on the receive side.  A member
session's instance holds its group's *lane* (``vectormux.Lane``: the one
group tuple and the slot → instance map), so a split is computed once per
instance, and :func:`svec_slot` reads a member's slot back off its id.
"""

from __future__ import annotations

from collections.abc import Container

MW = "mw"
SVSS = "svss"


def mw_session(parent: tuple, dealer: int, moderator: int, slot: str) -> tuple:
    return (MW, parent, dealer, moderator, slot)


def svss_session(tag: object, dealer: int) -> tuple:
    return (SVSS, tag, dealer)


def svss_dealer(sid: tuple) -> int:
    return sid[2]


def is_mw(sid: tuple) -> bool:
    return isinstance(sid, tuple) and len(sid) == 5 and sid[0] == MW


def is_svss(sid: tuple) -> bool:
    return isinstance(sid, tuple) and len(sid) == 3 and sid[0] == SVSS


# -- slot-vector groups (see module docstring) -------------------------------

#: group-kind markers: "s" = SVSS-level group, "m" = MW-level group.
SVEC_SVSS = "s"
SVEC_MW = "m"


def svec_split(sid: tuple, families: Container) -> tuple[tuple, object] | None:
    """``(group, slot)`` when ``sid`` belongs to a registered slot family.

    ``families`` holds the coin session ids whose per-slot sessions may be
    vectorized; anything else (solo sessions, plain counters) returns None
    and travels per session, as does any id of another shape.
    """
    if is_svss(sid):
        tag = sid[1]
        if type(tag) is tuple and len(tag) == 2 and tag[0] in families:
            return (SVEC_SVSS, tag[0], sid[2]), tag[1]
    elif is_mw(sid):
        parent = sid[1]
        if type(parent) is tuple and len(parent) == 3 and parent[0] == SVSS:
            tag = parent[1]
            if type(tag) is tuple and len(tag) == 2 and tag[0] in families:
                return (SVEC_MW, tag[0], parent[2], sid[2], sid[3], sid[4]), tag[1]
    return None


def svec_slot(sid: tuple) -> object:
    """The slot of a session :func:`svec_split` placed in a group."""
    return sid[1][1] if sid[0] == SVSS else sid[1][1][1]


def svec_sid(group: tuple, slot: object) -> tuple:
    """Rebuild the per-slot session id of ``group`` (inverse of
    :func:`svec_split`); the caller validated the group shape."""
    if group[0] == SVEC_SVSS:
        return (SVSS, (group[1], slot), group[2])
    return (MW, (SVSS, (group[1], slot), group[2]), group[3], group[4], group[5])


def sharing_of(sid: tuple) -> tuple:
    """The sharing a session belongs to, the unit that retires: an SVSS
    session and its 2n² MW-SVSS children go together under the SVSS id, and
    an MW-SVSS session with any other parent is a sharing of its own."""
    if sid[0] == MW and is_svss(sid[1]):
        return sid[1]
    return sid


def svec_group_wellformed(group: object) -> bool:
    """Shape check for a *network-supplied* group id.

    Only the structure the rebuild needs is validated here — the per-slot
    session ids it produces go through the ordinary ``VSSManager`` session
    validation, so a forged group grants nothing beyond forging the
    per-slot messages directly.
    """
    if type(group) is not tuple or not group:
        return False
    if group[0] == SVEC_SVSS:
        return len(group) == 3
    if group[0] == SVEC_MW:
        return len(group) == 6 and group[5] in ("md", "dm")
    return False


class SessionClock:
    """The per-process count ``→_i`` is read off.

    ``count`` is how many MW-SVSS reconstructs completed here, and
    ``completed[σ]`` the count ``σ``'s completion reached.  A session's begin
    stamp is the count when this process first took part in its share
    (initiation or first delivered message); it is read, never advanced,
    and lives on the session's instance (``begun``).  So ``σ →_i σ'``,
    "``σ``'s reconstruct completed before ``σ'``'s share began" (§2), is
    ``completed[σ] <= begun[σ']``: if ``σ`` completed first, the count at
    ``σ'``'s begin is at least ``completed[σ]``; if ``σ'`` began first,
    ``σ``'s completion moves the count past its stamp.

    ``retired`` is the tombstone: the sharings (:func:`sharing_of`) whose
    root this process released.  Once they leave the manager's tables their
    sessions have no instance, so no begin stamp, and read as begun long
    ago (never delayed); a ``completed`` stamp stays only while the DMM
    holds a debt.
    """

    __slots__ = ("count", "completed", "retired")

    def __init__(self) -> None:
        self.count = 0
        self.completed: dict[tuple, int] = {}
        self.retired: set[tuple] = set()

    def finished(self, sid: tuple) -> bool:
        """``sid``'s sharing has retired."""
        return sharing_of(sid) in self.retired

    def note_complete(self, sid: tuple) -> None:
        """An MW-SVSS reconstruct of ``sid`` completed here."""
        if sid not in self.completed:
            self.count += 1
            self.completed[sid] = self.count
