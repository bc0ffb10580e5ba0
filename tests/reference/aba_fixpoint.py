"""The seed's ABA vote validation: an O(n²) fixpoint recomputed from
scratch over every vote received in a round (paper §5, Bracha's validated
votes).  ``ABAProcess`` validates incrementally; ``armed()`` holds it to
this after every ``_ingest_vote``, and ``tests/conftest.py`` arms it for
the whole suite.  No import from ``repro``."""


def fixpoint_accepted(n, t, received):
    """``received`` is ``{phase: {sender: vote}}``; returns the accepted
    votes in the same shape."""
    accepted = {1: {}, 2: {}, 3: {}}

    def valid(phase, vote):
        if phase == 1:
            return True  # any bit (core/agreement.py, "Validation notes")
        if phase == 2:
            backing = sum(1 for v in accepted[1].values() if v == vote)
            wait = n - t
            needed = wait // 2 + 1 if vote == 1 else (wait + 1) // 2
            return backing >= needed
        w, flagged = vote
        counts = [0, 0]
        for v in accepted[2].values():
            counts[v] += 1
        if flagged:
            return counts[w] >= n // 2 + 1
        need = n - t
        floor_half = n // 2
        return (
            counts[0] + counts[1] >= need
            and counts[0] >= need - floor_half
            and counts[1] >= need - floor_half
        )

    progressed = True
    while progressed:
        progressed = False
        for phase in (1, 2, 3):
            for sender, vote in received[phase].items():
                if sender in accepted[phase]:
                    continue
                if valid(phase, vote):
                    accepted[phase][sender] = vote
                    progressed = True
    return accepted


def armed(ingest_vote):
    """``ABAProcess._ingest_vote`` with the cross-check after it.

    Membership only: the fixpoint cannot replay chronological acceptance
    order (a parked vote accepted late sits early in its pool), so ``==``
    compares the per-phase dicts order-insensitively.  Acceptance *order*
    is guarded end to end by ``tests/test_dispatch_equiv.py``."""

    def checked(self, state, phase, origin, vote):
        ingest_vote(self, state, phase, origin, vote)
        assert state.accepted == fixpoint_accepted(self.n, self.t, state.received), (
            "incremental vote validation diverged from the fixpoint "
            f"(pid={self.pid}, instance={self.instance_id!r}, phase={phase}, "
            f"origin={origin})"
        )

    return checked
