"""MW-SVSS reconstruct steps 2-4 (paper §3.2, R') the way ``core.mwsvss``
gathered its points before they became sender masks: ``K`` maps a monitor
to its list of ``(sender, value)`` points, a duplicate is found by scanning
that list, the dirty senders are a set, and ``f̄_l(0)`` is textbook Lagrange
through the sorted points.

``MWSVSSInstance`` keeps ``K`` as a row of sender masks and reads the values
back off ``rv_batches`` in ascending pid order.  Fed the same ``L̂``, ``M̂``
and ``rv`` arrivals it must choose the same senders per monitor, the same
``f̄_l`` and the same output, ⊥ included (``tests/test_rv_points.py``).  Which
``t + 1`` points win decides ``f̄_l`` when a sender lies, so the batches are
scanned in arrival order.  No import from ``repro``."""

from reference.svss_output import interpolate, interpolate_degree_t


class RvPoints:
    """One process' R' state for one session.  Every ``on_*`` call is one
    delivered message; after the output nothing is recorded (the instance is
    released)."""

    def __init__(self, prime, t, bottom):
        self.prime, self.t, self.bottom = prime, t, bottom
        self.L_hat = {}  # monitor -> set of its confirmers
        self.M_hat = None  # set of monitors
        self.rv_batches = {}  # sender -> {monitor: value}, in arrival order
        self.dirty = set()
        self.K = {}  # monitor -> [(sender, value), ...], at most t + 1
        self.f_bar = {}  # monitor -> f̄_l(0)
        self.begun = False
        self.output = None

    def on_l_set(self, monitor, members):
        if self.output is None and monitor not in self.L_hat:
            self.L_hat[monitor] = set(members)
            self.dirty.update(self.rv_batches)
            self.step()

    def on_m_set(self, members):
        if self.output is None and self.M_hat is None:
            self.M_hat = set(members)
            self.dirty.update(self.rv_batches)
            self.step()

    def on_rv(self, sender, items):
        if self.output is None and sender not in self.rv_batches:
            self.rv_batches[sender] = dict(items)
            self.dirty.add(sender)
            self.step()

    def begin(self):
        if self.output is None:
            self.begun = True
            self.step()

    def step(self):
        self.consume()
        self.maybe_output()

    def consume(self):
        if self.M_hat is None or not self.dirty:
            return
        dirty, self.dirty = self.dirty, set()
        for sender, batch in self.rv_batches.items():
            if sender not in dirty:
                continue
            for monitor, value in batch.items():
                if monitor not in self.M_hat:
                    continue
                if sender not in self.L_hat.get(monitor, ()):
                    continue
                points = self.K.setdefault(monitor, [])
                if len(points) > self.t:
                    continue
                if any(k == sender for k, _ in points):
                    continue
                points.append((sender, value))
                if len(points) == self.t + 1 and monitor not in self.f_bar:
                    self.f_bar[monitor] = interpolate(self.prime, sorted(points))[0]

    def maybe_output(self):
        if not self.begun or self.M_hat is None:
            return
        if any(monitor not in self.f_bar for monitor in self.M_hat):
            return
        points = [(monitor, self.f_bar[monitor]) for monitor in sorted(self.M_hat)]
        coeffs = interpolate_degree_t(self.prime, points, self.t)
        self.output = self.bottom if coeffs is None else coeffs[0]
