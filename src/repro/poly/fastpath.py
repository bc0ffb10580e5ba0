"""Algebra fast path: cached Lagrange bases, evaluation rows, batch inversion.

Every share/reconstruct step of the protocol stack interpolates univariate
polynomials over the *same few node sets* — the dealer grid ``{1..t+1}``
and subsets of the process ids ``{1..n}`` — and evaluates the interpolants
at the *same few points*, ``{0..n}``.  The seed implementation rebuilt a
full Lagrange basis (with one Fermat inversion per node) on every call;
this module makes the basis a cached object so the per-call cost drops to a
plain matrix–vector or dot product with no modular exponentiations at all.

Basis rows and evaluation rows
------------------------------
For distinct nodes ``x_1 .. x_m`` define the weights

    w_i = 1 / prod_{j != i} (x_i - x_j)

and the basis polynomials ``lambda_i(x) = w_i * N(x) / (x - x_i)`` with
``N(x) = prod_j (x - x_j)``; ``lambda_i`` is 1 at ``x_i`` and 0 at every
other node.  The interpolant through ``(x_i, y_i)`` is
``sum_i y_i * lambda_i``, so

* its coefficient vector is the values times the *basis rows* (the
  coefficients of every ``lambda_i``), and
* its value at a point ``x`` is the values' dot product with the
  *evaluation row* ``(lambda_1(x), ..., lambda_m(x))``.

Both depend only on the node set (and the point), never on the values —
they are the cached objects.  The weights cost the basis its one batch
inversion at construction; an evaluation row is read off the basis rows
through ``x``'s power chain, so evaluating an interpolant — ``f(0)``
included — never inverts.

Cache-key design
----------------
Caches are keyed by ``(field, xs)`` with ``xs`` reduced to canonical
``[0, p)`` form.  :class:`~repro.field.gf.Field` hashes and compares by its
prime alone, so two distinct ``Field`` instances with the same modulus share
cache entries (the protocol stack builds one ``Field`` per config, but they
all wrap the same prime).  Node sets in this stack are always subsets of
``{0..n}``, so the working set is tiny and an LRU bound is a formality.
Evaluation rows are memoised on their basis, keyed by the canonical point,
up to :data:`EVAL_ROW_CACHE` per basis.

The one inversion of a basis goes through :func:`batch_inverse`
(Montgomery's trick): a batch of ``k`` elements costs ``3(k-1)``
multiplications plus a *single* modular exponentiation, instead of ``k``
exponentiations.

This is the stack's only algebra: rows of small Python ints, with no
vectorized backend, selection or fallback beside it (``docs/ALGEBRA.md``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from operator import mul

from repro.errors import FieldError, PolynomialError
from repro.field.gf import Field

__all__ = [
    "LagrangeBasis",
    "batch_inverse",
    "evaluate_many",
    "evaluate_rows",
    "interpolate_values",
    "interpolate_values_rows",
    "lagrange_basis",
    "power_table",
]


def batch_inverse(field: Field, values: Sequence[int]) -> list[int]:
    """Invert every element of ``values`` with one modular exponentiation.

    Montgomery's trick: form the prefix products, invert the total, then
    peel the individual inverses off backwards.  Raises
    :class:`~repro.errors.FieldError` on any zero element, matching
    :meth:`Field.inv`.
    """
    prime = field.prime
    canonical = [v % prime for v in values]
    if not canonical:
        return []
    prefix = [1] * (len(canonical) + 1)
    acc = 1
    for i, v in enumerate(canonical):
        if v == 0:
            raise FieldError("zero has no multiplicative inverse")
        acc = acc * v % prime
        prefix[i + 1] = acc
    inv = pow(acc, prime - 2, prime)
    out = [0] * len(canonical)
    for i in range(len(canonical) - 1, -1, -1):
        out[i] = prefix[i] * inv % prime
        inv = inv * canonical[i] % prime
    return out


class _PowerTable:
    """Growable table of powers ``x^0, x^1, ...`` of one base point.

    Multi-point evaluation repeatedly needs the same power chains (the
    protocol always evaluates at points of ``{1..n}``), so the chains are
    memoised per ``(field, x)`` and extended on demand.
    """

    __slots__ = ("prime", "x", "_powers")

    def __init__(self, prime: int, x: int):
        self.prime = prime
        self.x = x
        self._powers = [1]

    def up_to(self, count: int) -> list[int]:
        """Powers ``x^0 .. x^(count-1)`` (the returned list may be longer)."""
        powers = self._powers
        if len(powers) < count:
            prime, x = self.prime, self.x
            acc = powers[-1]
            for _ in range(count - len(powers)):
                acc = acc * x % prime
                powers.append(acc)
        return powers


@lru_cache(maxsize=8192)
def power_table(field: Field, x: int) -> _PowerTable:
    """The cached power chain of ``x`` over ``field``."""
    return _PowerTable(field.prime, x % field.prime)


#: Point sets whose power rows :func:`_power_rows` keeps.  The dealers
#: evaluate only at ``0..n`` and ``1..n``; a key past the bound is computed
#: and not kept.
POWER_ROWS_CACHE = 64
_POWER_ROWS: dict[tuple, tuple[list[int], ...]] = {}


def _power_rows(field: Field, xs: Iterable[int], width: int) -> tuple[list[int], ...]:
    """The power chains ``x^0 .. x^(width-1)`` of every point of ``xs``
    (a chain may be longer), memoised by ``(prime, tuple(xs), width)``."""
    xs = tuple(xs)
    key = (field.prime, xs, width)
    rows = _POWER_ROWS.get(key)
    if rows is None:
        prime = field.prime
        rows = tuple(power_table(field, x % prime).up_to(width) for x in xs)
        if len(_POWER_ROWS) < POWER_ROWS_CACHE:
            _POWER_ROWS[key] = rows
    return rows


def evaluate_many(
    field: Field, coeffs: Sequence[int], xs: Iterable[int]
) -> list[int]:
    """Evaluate ``sum_k coeffs[k] x^k`` at every point of ``xs``.

    Uses the memoised power rows and a single deferred reduction per point:
    the dot product is accumulated as one big int and reduced once, which
    beats per-step Horner reductions for the degrees this stack uses.
    """
    if not coeffs:
        return [0 for _ in xs]
    prime = field.prime
    return [
        sum(map(mul, coeffs, powers)) % prime
        for powers in _power_rows(field, xs, len(coeffs))
    ]


def evaluate_rows(
    field: Field, coeff_rows: Sequence[Sequence[int]], xs: Sequence[int]
) -> list[list[int]]:
    """Evaluate many polynomials at the same points in one batched pass.

    The vectorized share-row primitive: a dealer distributing ``k``
    polynomials over the same evaluation grid (all sub-polynomials of one
    MW-SVSS deal, all rows of one bivariate share matrix, all slots of one
    coin batch) fetches each point's power chain *once* and runs one
    deferred-reduction dot product per ``(row, point)`` cell.  Result
    ``out[i][j] == coeff_rows[i]`` evaluated at ``xs[j]``, bit-identical
    to ``evaluate_many`` row by row.
    """
    prime = field.prime
    width = max(map(len, coeff_rows), default=0)
    if not width:
        return [[0 for _ in xs] for _ in coeff_rows]
    tables = _power_rows(field, xs, width)
    return [
        [sum(map(mul, coeffs, powers)) % prime for powers in tables]
        for coeffs in coeff_rows
    ]


#: Evaluation rows one basis keeps.  The protocol evaluates only at points
#: of ``{0..n}``; a row past the bound is computed and not kept.
EVAL_ROW_CACHE = 64


class LagrangeBasis:
    """Precomputed interpolation data for one node set.

    Construct via :func:`lagrange_basis` (which canonicalises, validates,
    and caches); direct construction assumes ``xs`` are distinct canonical
    elements.  The weights are computed eagerly (one batch inversion, the
    only one the basis ever makes); the coefficient rows of the basis
    polynomials and the evaluation rows are computed lazily on first use
    and memoised on the instance.
    """

    __slots__ = ("field", "xs", "weights", "_rows", "_eval_rows")

    def __init__(self, field: Field, xs: tuple[int, ...]):
        self.field = field
        self.xs = xs
        prime = field.prime
        denoms = []
        for i, x_i in enumerate(xs):
            d = 1
            for j, x_j in enumerate(xs):
                if j != i:
                    d = d * (x_i - x_j) % prime
            denoms.append(d)
        self.weights = tuple(batch_inverse(field, denoms))
        self._rows: tuple[tuple[int, ...], ...] | None = None
        self._eval_rows: dict[int, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.xs)

    def __repr__(self) -> str:
        return f"LagrangeBasis(GF({self.field.prime}), xs={list(self.xs)})"

    # -- cached structure ---------------------------------------------------
    @property
    def basis_rows(self) -> tuple[tuple[int, ...], ...]:
        """Coefficient rows of the basis polynomials ``lambda_i``.

        Row ``i`` holds the coefficients (low degree first, length ``m``) of
        the polynomial that is 1 at ``xs[i]`` and 0 at every other node.
        Computed once per node set: the master polynomial
        ``N(x) = prod (x - x_j)`` costs O(m^2), and each row is one O(m)
        synthetic division ``N / (x - x_i)`` scaled by the weight.
        """
        rows = self._rows
        if rows is None:
            prime = self.field.prime
            master = [1]  # coefficients of N(x), low degree first
            for x_j in self.xs:
                master = [0] + master
                neg = -x_j % prime
                for k in range(len(master) - 1):
                    master[k] = (master[k] + neg * master[k + 1]) % prime
            m = len(self.xs)
            built = []
            for x_i, w_i in zip(self.xs, self.weights):
                # Synthetic division: q(x) = N(x) / (x - x_i), degree m-1.
                q = [0] * m
                acc = master[m]  # == 1
                for k in range(m - 1, -1, -1):
                    q[k] = acc * w_i % prime
                    acc = (master[k] + acc * x_i) % prime
                built.append(tuple(q))
            rows = self._rows = tuple(built)
        return rows

    def evaluation_row(self, x: int) -> tuple[int, ...]:
        """``(lambda_0(x), ..., lambda_{m-1}(x))`` for a canonical ``x``: the
        interpolant's value at ``x`` is this row's dot product with the
        values (a unit row when ``x`` is a node).

        Read off :attr:`basis_rows` through ``x``'s cached power chain — no
        inversion — and memoised for up to :data:`EVAL_ROW_CACHE` points.
        """
        row = self._eval_rows.get(x)
        if row is None:
            prime = self.field.prime
            powers = power_table(self.field, x).up_to(len(self.xs))
            row = tuple(
                sum(map(mul, coeffs, powers)) % prime for coeffs in self.basis_rows
            )
            if len(self._eval_rows) < EVAL_ROW_CACHE:
                self._eval_rows[x] = row
        return row

    def _check_values(self, ys: Sequence[int]) -> None:
        if len(ys) != len(self.xs):
            raise PolynomialError(
                f"expected {len(self.xs)} values, got {len(ys)}"
            )

    # -- operations ---------------------------------------------------------
    def interpolate_coeffs(self, ys: Sequence[int]) -> list[int]:
        """Coefficients of the interpolant through ``(xs[i], ys[i])``.

        A pure matrix–vector product over the cached rows: no inversions,
        one deferred reduction per output coefficient.
        """
        self._check_values(ys)
        prime = self.field.prime
        m = len(self.xs)
        out = [0] * m
        for y, row in zip(ys, self.basis_rows):
            y %= prime
            if y == 0:
                continue
            for k in range(m):
                out[k] += y * row[k]
        return [v % prime for v in out]

    def interpolate_rows(
        self, ys_rows: Sequence[Sequence[int]]
    ) -> list[list[int]]:
        """Coefficient vectors of many interpolants over this node set.

        One basis serves the whole batch: the rows (whose one-time
        construction amortized its inversions through
        :func:`batch_inverse`) are reused for every value row, so the
        per-row cost is the plain matrix–vector product of
        :meth:`interpolate_coeffs` with no per-row basis lookup.
        """
        return [self.interpolate_coeffs(ys) for ys in ys_rows]

    def evaluate_many_at(self, ys: Sequence[int], points: Sequence[int]) -> list[int]:
        """The interpolant's value at every point: one dot product with the
        cached evaluation row per point, no inversion."""
        self._check_values(ys)
        prime = self.field.prime
        row = self.evaluation_row
        return [sum(map(mul, ys, row(x % prime))) % prime for x in points]


@lru_cache(maxsize=4096)
def _cached_basis(field: Field, xs: tuple[int, ...]) -> LagrangeBasis:
    return LagrangeBasis(field, xs)


def lagrange_basis(field: Field, xs: Sequence[int]) -> LagrangeBasis:
    """The cached :class:`LagrangeBasis` for node set ``xs``.

    Raises :class:`~repro.errors.PolynomialError` on duplicate nodes
    (after reduction into the field, so ``1`` and ``p + 1`` collide).
    """
    prime = field.prime
    canonical = tuple(x % prime for x in xs)
    if len(set(canonical)) != len(canonical):
        raise PolynomialError(f"duplicate x-coordinates in {list(canonical)}")
    if not canonical:
        raise PolynomialError("cannot interpolate zero points")
    return _cached_basis(field, canonical)


# Probe shims: ``benchmarks/e2e/layerprobe.py:178-179`` (``FUNCTION_SEAMS``)
# patches both names, and the traced harness fails when one is missing.
# Nothing in ``src/`` calls them; ROADMAP item 6(a) deletes them.
def interpolate_values(
    field: Field, xs: Sequence[int], ys: Sequence[int]
) -> list[int]:
    """Coefficients of the degree-``< len(xs)`` polynomial through
    ``(xs[i], ys[i])``, over the cached basis of ``xs``."""
    return lagrange_basis(field, xs).interpolate_coeffs(ys)


def interpolate_values_rows(
    field: Field, xs: Sequence[int], ys_rows: Sequence[Sequence[int]]
) -> list[list[int]]:
    """:func:`interpolate_values` for many value rows over one node set."""
    return lagrange_basis(field, xs).interpolate_rows(ys_rows)
