#!/usr/bin/env python3
"""Walkthrough of the paper's Example 1 (§3.3): weak binding breaks, the
shunning mechanism pays for it.

A faulty dealer crafts reconstruct values so that two *nonfaulty*
processes complete the same MW-SVSS invocation with different non-⊥
values — the strongest misbehaviour MW-SVSS permits.  The paper's answer
is not to prevent it (that would cost the error probability Canetti-Rabin
pay) but to make it *expensive*: the crafted lie necessarily conflicts
with a recorded ACK/DEAL expectation, so the dealer lands in a nonfaulty
process' D set and is ignored in every later session.  At most
t(n-t) = O(n^2) such breaks can ever happen — which is the whole
almost-sure-termination argument of Theorem 1.

Run:  python examples/example1_shunning.py
"""

from repro.core.dmm import DISCARD
from repro.scenarios import (
    DEALER,
    FAKE_SECRET,
    MODERATOR,
    TRUE_SECRET,
    run_example1,
)


def main() -> None:
    print("Example 1 (paper §3.3): n=4, t=1")
    print(f"  dealer   : process {DEALER} (faulty, crafts its reconstruct lies)")
    print(f"  moderator: process {MODERATOR}")
    print("  process 4: delayed by the adversarial schedule")
    print(f"  true secret {TRUE_SECRET}, crafted fake secret {FAKE_SECRET}")
    print()

    outcome = run_example1(seed=0)

    print(f"share completed at: {sorted(outcome.share_completed)}")
    print(f"outputs: {outcome.outputs}")
    print()
    assert outcome.outputs[MODERATOR] == TRUE_SECRET
    assert outcome.outputs[3] == FAKE_SECRET
    print(
        f"process {MODERATOR} reconstructed {outcome.outputs[MODERATOR]}, "
        f"process 3 reconstructed {outcome.outputs[3]} - two NONFAULTY "
        "processes disagree on non-bottom values."
    )
    print()

    pairs = sorted(outcome.stack.trace.shun_pairs())
    print(f"shun pairs recorded: {pairs}")
    observer = next(o for o, c in pairs if c == DEALER)
    vss = outcome.stack.vss[observer]
    # a session beginning now is stamped with the session clock's count
    verdict = vss.dmm.filter_verdict(DEALER, vss.clock.count)
    assert verdict == DISCARD
    print(
        f"process {observer} now discards everything dealer {DEALER} sends "
        "in future sessions - one of the O(n^2) shun pairs is spent, "
        "which is exactly how Theorem 1 bounds the adversary."
    )


if __name__ == "__main__":
    main()
