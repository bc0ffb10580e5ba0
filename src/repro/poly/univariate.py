"""Univariate polynomials over ``GF(p)``.

The textbook objects behind the protocol's value rows: the MW-SVSS
dealer's degree-``t`` polynomials ``f, f_1, ..., f_n`` (paper §3.2) are
drawn exactly as :meth:`Polynomial.random` draws them, but the protocol
paths keep only their values at ``{0..n}`` (``docs/ALGEBRA.md``).  The
module provides construction, evaluation and Lagrange interpolation for
tests, benchmarks and the hiding witnesses.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from random import Random

from repro.errors import PolynomialError
from repro.field.gf import Field
import repro.poly.fastpath as fastpath
from repro.poly.fastpath import lagrange_basis


class Polynomial:
    """An immutable univariate polynomial ``c_0 + c_1 x + ... + c_d x^d``.

    Coefficients are canonical field ints, low degree first.  Trailing zero
    coefficients are stripped so ``degree`` is exact (the zero polynomial has
    degree -1 by convention).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[int]):
        canonical = [c % field.prime for c in coeffs]
        while canonical and canonical[-1] == 0:
            canonical.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(canonical))

    def __setattr__(self, name: str, value: object) -> None:
        raise PolynomialError("Polynomial instances are immutable")

    # -- identity ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial(GF({self.field.prime}), {list(self.coeffs)})"

    @property
    def degree(self) -> int:
        """Exact degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- evaluation ----------------------------------------------------------
    def __call__(self, x: int) -> int:
        """Evaluate at ``x`` by Horner's rule."""
        prime = self.field.prime
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % prime
        return acc

    def evaluate_many(self, xs: Iterable[int]) -> list[int]:
        """Evaluate at every point of ``xs`` via cached power tables."""
        return fastpath.evaluate_many(self.field, self.coeffs, xs)

    # -- algebra --------------------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_field(other)
        longer, shorter = self.coeffs, other.coeffs
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        mixed = list(longer)
        for i, c in enumerate(shorter):
            mixed[i] = (mixed[i] + c) % self.field.prime
        return Polynomial(self.field, mixed)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_field(other)
        prime = self.field.prime
        size = max(len(self.coeffs), len(other.coeffs))
        mixed = [0] * size
        for i, c in enumerate(self.coeffs):
            mixed[i] = c
        for i, c in enumerate(other.coeffs):
            mixed[i] = (mixed[i] - c) % prime
        return Polynomial(self.field, mixed)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_field(other)
        if self.is_zero() or other.is_zero():
            return Polynomial(self.field, [])
        prime = self.field.prime
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % prime
        return Polynomial(self.field, out)

    def scale(self, factor: int) -> "Polynomial":
        prime = self.field.prime
        return Polynomial(self.field, [(c * factor) % prime for c in self.coeffs])

    def _check_same_field(self, other: "Polynomial") -> None:
        if other.field != self.field:
            raise PolynomialError("polynomials live in different fields")

    # -- construction -----------------------------------------------------------
    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls(field, [])

    @classmethod
    def constant(cls, field: Field, value: int) -> "Polynomial":
        return cls(field, [value])

    @classmethod
    def random(
        cls,
        field: Field,
        degree: int,
        rng: Random,
        constant_term: int | None = None,
    ) -> "Polynomial":
        """A uniformly random polynomial of degree at most ``degree``.

        When ``constant_term`` is given, the polynomial is uniform among
        those with ``f(0) = constant_term`` — the dealer's sharing step.
        """
        if degree < 0:
            raise PolynomialError("degree must be >= 0 for a random polynomial")
        coeffs = field.random_elements(rng, degree + 1)
        if constant_term is not None:
            coeffs[0] = field.element(constant_term)
        return cls(field, coeffs)


def lagrange_interpolate(
    field: Field, points: Sequence[tuple[int, int]]
) -> Polynomial:
    """The unique polynomial of degree < ``len(points)`` through ``points``.

    Raises :class:`PolynomialError` on duplicate x-coordinates.  Delegates
    to the cached Lagrange basis of :mod:`repro.poly.fastpath`, so
    repeated interpolation over the same node set (the protocol's common
    case) costs one matrix–vector product and no modular inversions.
    """
    if not points:
        raise PolynomialError("cannot interpolate zero points")
    basis = lagrange_basis(field, [x for x, _ in points])
    return Polynomial(field, basis.interpolate_coeffs([y for _, y in points]))


def interpolate_at_zero(field: Field, points: Sequence[tuple[int, int]]) -> int:
    """Evaluate the interpolating polynomial at 0 without building it.

    This is the hot path of reconstruction (the secret lives at 0): with
    the cached basis it is a single dot product against the precomputed
    ``λ_i(0)`` row.
    """
    if not points:
        raise PolynomialError("cannot interpolate zero points")
    basis = lagrange_basis(field, [x for x, _ in points])
    return basis.evaluate_at_zero([y for _, y in points])
