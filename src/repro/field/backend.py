"""Swappable vectorized algebra backend for the row-shaped fast paths.

The protocol stack funnels its hot algebra through a handful of
*row-shaped* entry points in :mod:`repro.poly.fastpath` —
``evaluate_rows`` (many polynomials × many points),
``LagrangeBasis.interpolate_rows`` (many value rows over one cached node
set) and ``batch_inverse`` (Montgomery inversion).  This module makes
the *implementation* of those entry points swappable:

* ``pure`` — the existing pure-python code in ``repro.poly.fastpath``,
  always available, the reference semantics, and the default.
* ``numpy`` — int64 modular row arithmetic: over a 31-bit modulus a
  product of two canonical elements stays below ``2^62``, so vectorized
  Horner evaluation and basis-row matrix products reduce once per step
  and never overflow.  Available only when numpy is importable and only
  over int64-safe primes (see
  :func:`repro.field.primes.require_int64_safe`).

Contract
--------
A backend NEVER changes results: every kernel either returns exactly what
the pure code would (the arithmetic is exact in both), or *declines* by
returning ``None``, sending the caller down the always-available pure
path.  Kernels decline on ragged or undersized inputs, on values outside
canonical ``[0, p)`` form, and on anything numpy cannot convert losslessly
to ``int64`` — so error behaviour (which exception, raised where) is the
pure path's in every case except one: requesting the numpy backend over a
prime wider than 31 bits raises :class:`~repro.errors.FieldError`
immediately rather than risking silent overflow.

Selection
---------
Explicit, otherwise pure.  numpy runs only when a caller names it:
``build_stack(algebra_backend="numpy")`` (and the ``run_*`` /
``flip_common_coin`` passthroughs) or a direct :func:`set_backend`.  Which
algebra runs never depends on what is installed or on the environment, so
a default run never imports numpy.

Selection is process-global (the fast-path functions are called from deep
inside protocol handlers that carry no runtime handle); a
:class:`~repro.sim.runtime.Runtime` pins the backend at construction and
snapshots the counters so results report per-run deltas.

Counters
--------
``counters.rows_vectorized`` — rows (matrix rows for the row kernels, batch
elements for inversions) processed by a vectorized kernel.
``counters.backend_fallbacks`` — calls the selected vector backend handed
back to the pure path (shape, size-threshold, or value-safety declines).
The pure backend increments neither: declining is its job, not a fallback.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import FieldError
from repro.field.primes import require_int64_safe

# numpy is an optional extra, imported only when the numpy backend is
# named: ``import repro`` and every default run stay numpy-free (the
# socket-launch children are wall-clock sensitive between exec and their
# first journal write).
_np = None
_np_checked = False


def _load_numpy():
    global _np, _np_checked
    if not _np_checked:
        _np_checked = True
        try:
            import numpy

            _np = numpy
        except ImportError:  # pragma: no cover - monkeypatched in tests
            _np = None
    return _np

__all__ = [
    "AlgebraBackend",
    "BACKENDS",
    "BACKEND_NUMPY",
    "BACKEND_PURE",
    "BackendCounters",
    "NumpyBackend",
    "PureBackend",
    "active_backend",
    "available_backends",
    "counters",
    "numpy_available",
    "resolve_backend",
    "set_backend",
]

BACKEND_PURE = "pure"
BACKEND_NUMPY = "numpy"
#: Every backend name :func:`resolve_backend` accepts (``None`` is pure).
BACKENDS = (BACKEND_PURE, BACKEND_NUMPY)

#: Below this many output cells (rows × columns) the fixed cost of array
#: conversion beats the vectorized win and the kernels decline; the
#: pure/vector split is observable via the counters but never via results.
MIN_VECTOR_CELLS = 16
#: Minimum batch size worth a vectorized Fermat inversion chain (the pure
#: Montgomery trick is already one ``pow`` for the whole batch).
MIN_INVERSE_BATCH = 64


class BackendCounters:
    """Process-global telemetry for the vectorized kernels.

    Runtimes snapshot these at construction and report per-run deltas on
    their result dataclasses; interleaving two live runtimes in one
    process attributes the overlap to both (runs in this repo are
    sequential per process).
    """

    __slots__ = ("rows_vectorized", "backend_fallbacks")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.rows_vectorized = 0
        self.backend_fallbacks = 0

    def snapshot(self) -> tuple[int, int]:
        return (self.rows_vectorized, self.backend_fallbacks)


#: The shared counter instance every kernel reports into.
counters = BackendCounters()


class AlgebraBackend:
    """Vector-kernel provider behind the row-shaped fast paths.

    Each kernel receives plain python data (the prime and sequences of
    ints) and either returns the exact result as lists of python ints or
    returns ``None``, meaning "run the pure path".  Kernels must not
    mutate their inputs and must not raise for malformed *values* (decline
    instead, so the pure path owns all error behaviour); the one sanctioned
    exception is the unsafe-prime :class:`~repro.errors.FieldError`.
    """

    name = "abstract"

    def evaluate_rows(
        self,
        prime: int,
        coeff_rows: Sequence[Sequence[int]],
        xs: Sequence[int],
    ) -> list[list[int]] | None:
        return None

    def interpolate_rows(
        self,
        prime: int,
        basis_rows: Sequence[Sequence[int]],
        ys_rows: Sequence[Sequence[int]],
    ) -> list[list[int]] | None:
        return None

    def batch_inverse(
        self, prime: int, values: Sequence[int]
    ) -> list[int] | None:
        return None


class PureBackend(AlgebraBackend):
    """The always-available reference backend.

    Every kernel declines: the pure-python implementations in
    :mod:`repro.poly.fastpath` *are* this backend, and declining is its
    selection, not a fallback — it touches no counter.
    """

    name = BACKEND_PURE


class NumpyBackend(AlgebraBackend):
    """int64-safe vectorized kernels over a ≤31-bit prime modulus."""

    name = BACKEND_NUMPY

    def __init__(self) -> None:
        if _load_numpy() is None:
            raise FieldError(
                "the numpy algebra backend was requested but numpy is not "
                "importable; install numpy or use the default pure backend"
            )

    @staticmethod
    def _decline() -> None:
        counters.backend_fallbacks += 1
        return None

    def evaluate_rows(self, prime, coeff_rows, xs):
        require_int64_safe(prime)
        k = len(coeff_rows)
        j = len(xs)
        if k == 0 or j == 0:
            return self._decline()
        widths = {len(row) for row in coeff_rows}
        if len(widths) != 1:  # ragged batches keep the pure zip semantics
            return self._decline()
        m = widths.pop()
        if m == 0 or k * j < MIN_VECTOR_CELLS:
            return self._decline()
        try:
            coeffs = _np.array(coeff_rows, dtype=_np.int64)
            points = _np.array([x % prime for x in xs], dtype=_np.int64)
        except (TypeError, ValueError, OverflowError):
            return self._decline()
        if coeffs.ndim != 2:  # nested non-int structure slipped through
            return self._decline()
        if bool((coeffs < 0).any()) or bool((coeffs >= prime).any()):
            return self._decline()  # non-canonical values: pure handles them
        # Vectorized Horner, one reduction per degree step: acc stays in
        # [0, p), acc * x < 2^62, + c < 2^62 + 2^31 < 2^63.
        acc = _np.empty((k, j), dtype=_np.int64)
        acc[:] = coeffs[:, -1][:, None]
        for col in range(m - 2, -1, -1):
            acc *= points
            acc += coeffs[:, col][:, None]
            acc %= prime
        counters.rows_vectorized += k
        return acc.tolist()

    def interpolate_rows(self, prime, basis_rows, ys_rows):
        require_int64_safe(prime)
        k = len(ys_rows)
        m = len(basis_rows)
        if k == 0 or m == 0 or k * m < MIN_VECTOR_CELLS:
            return self._decline()
        if any(len(ys) != m for ys in ys_rows):
            return self._decline()  # pure raises PolynomialError; let it
        try:
            values = _np.array(ys_rows, dtype=_np.int64)
            basis = _np.array(basis_rows, dtype=_np.int64)
        except (TypeError, ValueError, OverflowError):
            return self._decline()
        if values.ndim != 2:
            return self._decline()
        # The pure path canonicalises each y (``y %= prime``); int64
        # remainder matches python's sign convention, so this is exact.
        values %= prime
        out = _np.zeros((k, m), dtype=_np.int64)
        for i in range(m):
            out += values[:, i][:, None] * basis[i]
            out %= prime
        counters.rows_vectorized += k
        return out.tolist()

    def batch_inverse(self, prime, values):
        require_int64_safe(prime)
        k = len(values)
        if k < MIN_INVERSE_BATCH:
            return self._decline()
        canonical = [v % prime for v in values]
        if not all(canonical):
            return self._decline()  # pure raises FieldError on zero; let it
        base = _np.array(canonical, dtype=_np.int64)
        # Vectorized Fermat: a^(p-2) by square-and-multiply, ~2·31 array
        # multiplies for the whole batch regardless of its size.
        result = _np.ones(k, dtype=_np.int64)
        exponent = prime - 2
        while exponent:
            if exponent & 1:
                result *= base
                result %= prime
            exponent >>= 1
            if exponent:
                base *= base
                base %= prime
        counters.rows_vectorized += k
        return result.tolist()


def numpy_available() -> bool:
    """True iff the numpy backend can be constructed in this process."""
    return _load_numpy() is not None


def available_backends() -> tuple[str, ...]:
    """The concrete backend names constructible in this process."""
    return BACKENDS if _load_numpy() is not None else (BACKEND_PURE,)


_PURE = PureBackend()
_NUMPY: NumpyBackend | None = None
_active: AlgebraBackend | None = None


def _numpy_backend() -> NumpyBackend:
    global _NUMPY
    if _NUMPY is None:
        _NUMPY = NumpyBackend()
    return _NUMPY


def resolve_backend(spec: object = None) -> AlgebraBackend:
    """Resolve a backend spec without activating it.

    ``spec`` may be an :class:`AlgebraBackend` instance (returned as-is),
    one of :data:`BACKENDS`, or ``None`` — the pure backend.  Any other
    spelling raises :class:`~repro.errors.FieldError`, and so does
    ``"numpy"`` without numpy installed.
    """
    if isinstance(spec, AlgebraBackend):
        return spec
    if spec is None or spec == BACKEND_PURE:
        return _PURE
    if spec == BACKEND_NUMPY:
        return _numpy_backend()
    raise FieldError(
        f"unknown algebra backend {spec!r}; expected None or one of {BACKENDS}"
    )


def set_backend(spec: object = None) -> AlgebraBackend:
    """Resolve ``spec`` (see :func:`resolve_backend`) and activate it
    process-globally; returns the active backend."""
    global _active
    _active = resolve_backend(spec)
    return _active


def active_backend() -> AlgebraBackend:
    """The currently active backend: pure until one is set."""
    global _active
    if _active is None:
        _active = _PURE
    return _active
