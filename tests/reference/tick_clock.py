"""The session clock before begin stamps moved onto the instances: one
fresh tick per begin and per completion, both kept by session id, and
``→_i`` as ``completed[σ] < begun[σ']`` (paper §2).  The differential test
``tests/test_dmm_ledger.py`` drives ``dmm_model.Player`` with it.  No
import from ``repro``."""


class TickClock:
    def __init__(self):
        self.tick = 0
        self.begun, self.completed = {}, {}

    def note_begin(self, sid):
        if sid not in self.begun:
            self.tick += 1
            self.begun[sid] = self.tick

    def note_complete(self, sid):
        if sid not in self.completed:
            self.tick += 1
            self.completed[sid] = self.tick

    def precedes(self, first, second):
        """``first →_i second``: ``first``'s reconstruct completed before
        ``second``'s share began (both locally)."""
        done, begun = self.completed.get(first), self.begun.get(second)
        return done is not None and begun is not None and done < begun
