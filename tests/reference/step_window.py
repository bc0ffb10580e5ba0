"""The step window's buffering rule without fan records: every ``send_all``
is ``n`` per-pair buffers, one per destination ``1..n``, and the flush
drains the pairs in first-touched order — a pair holding two or more
logical messages leaves as one envelope ``("env", (payload, ...))`` in send
order, a lone message travels plain.  ``repro.sim.window.StepWindow`` keeps
a step's fan-out whole and must put the same wire payloads on the queue
with the same counters (``tests/test_step_window.py``).  No import from
``repro``."""

ENVELOPE_TAG = "env"


class ReferenceWindow:
    """One step's outbound buffers and the counters its flush moves."""

    def __init__(self, n):
        self.n = n
        self.outbox = {}
        #: layer -> logical messages sent
        self.sends = {}
        self.envelopes_pushed = 0
        self.payloads_coalesced = 0

    def transmit(self, src, dst, payload, layer):
        self.sends[layer] = self.sends.get(layer, 0) + 1
        self.outbox.setdefault((src, dst), []).append(payload)

    def transmit_all(self, src, payload, layer):
        for dst in range(1, self.n + 1):
            self.transmit(src, dst, payload, layer)

    def flush(self):
        """The step's wire payloads ``(src, dst, wire)`` in emit order."""
        emitted = []
        for (src, dst), payloads in self.outbox.items():
            if len(payloads) == 1:
                emitted.append((src, dst, payloads[0]))
                continue
            emitted.append((src, dst, (ENVELOPE_TAG, tuple(payloads))))
            self.envelopes_pushed += 1
            self.payloads_coalesced += len(payloads)
        self.outbox = {}
        return emitted
