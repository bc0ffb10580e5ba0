"""Probe shim: the numpy algebra backend is gone; this name is not.

``benchmarks/e2e/layerprobe.py:141-146`` (``METHOD_SEAMS``) patches the three
method names below, and ``benchmarks/e2e/test_harness.py:338`` fails the
traced run (``probe_missing == []``) when one is missing.  Nothing in
``src/`` imports this module or calls the class; the algebra is the pure
rows of :mod:`repro.poly.fastpath`.  ROADMAP item 6(a) deletes this file.
"""


class NumpyBackend:
    """Inert: every method the probe names, none of them reachable."""

    def batch_inverse(self):
        raise NotImplementedError

    def evaluate_rows(self):
        raise NotImplementedError

    def interpolate_rows(self):
        raise NotImplementedError
