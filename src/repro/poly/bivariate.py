"""Bivariate polynomials over ``GF(p)`` for the SVSS dealer (paper §4).

The SVSS dealer draws a random ``f(x, y)`` of degree at most ``t`` in each
variable with ``f(0, 0) = s`` and hands process ``j`` its *row*
``g_j(y) = f(j, y)`` and *column* ``h_j(x) = f(x, j)``.  It draws the
coefficients exactly as :meth:`BivariatePolynomial.random` does but keeps
only values (``core/svss.py``); this class is the tests' and the hiding
witness' view of the same ``f``.
"""

from __future__ import annotations

from collections.abc import Sequence
from random import Random

from repro.errors import PolynomialError
from repro.field.gf import Field
from repro.poly.fastpath import power_table
from repro.poly.univariate import Polynomial


class BivariatePolynomial:
    """Immutable ``f(x, y) = sum a[i][j] x^i y^j`` with ``i, j <= t``.

    ``coeffs[i][j]`` is the coefficient of ``x^i y^j``; the matrix is always
    ``(t+1) x (t+1)`` (zero-padded), so ``t`` is explicit.
    """

    __slots__ = ("field", "t", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[Sequence[int]]):
        t = len(coeffs) - 1
        if t < 0:
            raise PolynomialError("coefficient matrix must be non-empty")
        prime = field.prime
        rows = []
        for row in coeffs:
            if len(row) != t + 1:
                raise PolynomialError("coefficient matrix must be square")
            rows.append(tuple(c % prime for c in row))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "coeffs", tuple(rows))

    def __setattr__(self, name: str, value: object) -> None:
        raise PolynomialError("BivariatePolynomial instances are immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BivariatePolynomial)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"BivariatePolynomial(GF({self.field.prime}), t={self.t})"

    # -- evaluation -----------------------------------------------------------
    def __call__(self, x: int, y: int) -> int:
        prime = self.field.prime
        # Dot products against the cached power tables of x and y: the
        # reconstruct cross-checks evaluate f at every survivor pair, so
        # the power chains are shared across all those calls.
        x_powers = power_table(self.field, x % prime).up_to(self.t + 1)
        y_powers = power_table(self.field, y % prime).up_to(self.t + 1)
        acc = 0
        for row, x_pow in zip(self.coeffs, x_powers):
            row_val = 0
            for c, y_pow in zip(row, y_powers):
                row_val += c * y_pow
            acc += (row_val % prime) * x_pow
        return acc % prime

    @property
    def secret(self) -> int:
        """``f(0, 0)`` — the shared secret."""
        return self.coeffs[0][0]

    def row(self, j: int) -> Polynomial:
        """``g_j(y) = f(j, y)`` as a univariate polynomial in ``y``."""
        prime = self.field.prime
        powers = power_table(self.field, j % prime).up_to(self.t + 1)
        out = [0] * (self.t + 1)
        for row, x_pow in zip(self.coeffs, powers):
            for k, c in enumerate(row):
                out[k] += c * x_pow
        return Polynomial(self.field, [v % prime for v in out])

    def column(self, j: int) -> Polynomial:
        """``h_j(x) = f(x, j)`` as a univariate polynomial in ``x``."""
        prime = self.field.prime
        powers = power_table(self.field, j % prime).up_to(self.t + 1)
        out = [0] * (self.t + 1)
        for i, row in enumerate(self.coeffs):
            total = 0
            for c, y_pow in zip(row, powers):
                total += c * y_pow
            out[i] = total % prime
        return Polynomial(self.field, out)

    # -- algebra ----------------------------------------------------------------
    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        if other.field != self.field or other.t != self.t:
            raise PolynomialError("mismatched bivariate polynomials")
        prime = self.field.prime
        mixed = [
            [(a + b) % prime for a, b in zip(row_a, row_b)]
            for row_a, row_b in zip(self.coeffs, other.coeffs)
        ]
        return BivariatePolynomial(self.field, mixed)

    def scale(self, factor: int) -> "BivariatePolynomial":
        prime = self.field.prime
        mixed = [[(c * factor) % prime for c in row] for row in self.coeffs]
        return BivariatePolynomial(self.field, mixed)

    # -- construction ------------------------------------------------------------
    @classmethod
    def random(
        cls,
        field: Field,
        t: int,
        rng: Random,
        secret: int | None = None,
    ) -> "BivariatePolynomial":
        """Uniformly random degree-(t, t) polynomial, optionally pinning
        ``f(0,0)``.

        This is exactly the dealer step of SVSS share (paper §4 footnote 2:
        set ``a_00 = s`` and choose the remaining coefficients at random).
        """
        if t < 0:
            raise PolynomialError("t must be >= 0")
        coeffs = [field.random_elements(rng, t + 1) for _ in range(t + 1)]
        if secret is not None:
            coeffs[0][0] = field.element(secret)
        return cls(field, coeffs)


def masking_polynomial(field: Field, t: int, corrupt: Sequence[int]) -> BivariatePolynomial:
    """A degree-(t, t) polynomial ``q`` with ``q(0,0) = 1`` that vanishes on
    every row *and* column indexed by ``corrupt``.

    This is the constructive witness used by the hiding tests: for any two
    secrets ``s`` and ``s'``, ``f' = f + (s' - s) * q`` is a valid dealing of
    ``s'`` that gives the corrupt set *exactly the same* rows and columns as
    ``f`` — proving the adversary's view is independent of the secret.
    Requires ``len(corrupt) <= t``.
    """
    if len(set(corrupt)) != len(corrupt):
        raise PolynomialError("corrupt set has duplicates")
    if len(corrupt) > t:
        raise PolynomialError(f"corrupt set larger than t={t}")
    if 0 in corrupt:
        raise PolynomialError("0 is not a valid process index")
    prime = field.prime
    # q(x, y) = prod_{j in corrupt} (x - j)(y - j) / j^2, degree |corrupt| <= t
    # in each variable, q(0,0) = 1, and q(j, .) = q(., j) = 0 for corrupt j.
    uni = Polynomial.constant(field, 1)
    denom = 1
    for j in corrupt:
        uni = uni * Polynomial(field, [(-j) % prime, 1])
        denom = (denom * j * j) % prime
    inv_denom = field.inv(denom) if corrupt else 1
    u = list(uni.coeffs) + [0] * (t + 1 - len(uni.coeffs))
    coeffs = [
        [(u[i] * u[j] * inv_denom) % prime for j in range(t + 1)]
        for i in range(t + 1)
    ]
    return BivariatePolynomial(field, coeffs)
