"""The paper's DMM (§3.1, §3.3) as plain dictionaries, laid out like
``Player.DMM`` in giladstern/SVSS-Simulation: ``ACK[tag][(monitor, sender)]``
and ``DEAL[tag][sender]`` hold the expected values, ``D`` the detected set.
A batch that arrived before its expectation is handed over with it (the
session holds it, not the DMM).  No index (every question is a scan), no
import from ``repro``."""

FORWARD, DELAY, DISCARD = "forward", "delay", "discard"


class Player:
    def __init__(self, id, clock):
        self.id, self.clock = id, clock
        self.D, self.closed, self.shuns = set(), set(), []
        self.ACK, self.DEAL = {}, {}

    def expect(self, table, point, sender, tag, monitor, value, batch):
        if sender in self.D or sender == self.id:
            return
        if monitor not in (batch or {}):
            table.setdefault(tag, {}).setdefault(point, value)
        elif batch[monitor] != value:
            self.detect(sender, tag)

    def expect_ack(self, sender, tag, monitor, value, batch):
        self.expect(self.ACK, (monitor, sender), sender, tag, monitor, value, batch)

    def expect_deal(self, sender, tag, value, batch):
        self.expect(self.DEAL, sender, sender, tag, self.id, value, batch)

    def drop_deal_expectations(self, tag):
        self.DEAL.pop(tag, None)

    def check_reconstruct_batch(self, sender, tag, batch):
        if sender == self.id:
            return
        owed = {(m, sender): m for m in batch if (m, sender) in self.ACK.get(tag, {})}
        if sender in self.DEAL.get(tag, {}) and self.id in batch:
            owed[sender] = self.id
        for table in (self.ACK, self.DEAL):
            for point in [p for p in table.get(tag, {}) if p in owed]:
                if table[tag].pop(point) != batch[owed[point]]:
                    return self.detect(sender, tag)

    def detect(self, sender, tag):
        if sender not in self.D:
            self.D.add(sender)
            for points in self.ACK.values():
                for point in [p for p in points if p[1] == sender]:
                    del points[point]
            for senders in self.DEAL.values():
                senders.pop(sender, None)
            self.shuns.append((sender, tag))

    def on_session_reconstructed(self, tag):
        self.closed.add(tag)

    def forget_session(self, tag):
        if tag not in self.closed:
            self.closed.add(tag)
            self.ACK.pop(tag, None)
            self.DEAL.pop(tag, None)

    def pending_sessions(self, sender):
        deals = {tag for tag, senders in self.DEAL.items() if sender in senders}
        return deals | {t for t, points in self.ACK.items() if any(p[1] == sender for p in points)}

    def shunned_or_suspected(self, players):
        return self.D | {j for j in players if self.pending_sessions(j)}

    def filter_verdict(self, sender, tag):
        if sender == self.id:
            return FORWARD
        if sender in self.D:
            return DISCARD
        owing = self.pending_sessions(sender) & self.closed
        return DELAY if any(self.clock.precedes(old, tag) for old in owing) else FORWARD
