"""Polynomial algebra over GF(p) without polynomial objects.

Every polynomial of the protocol stack is only evaluated at points of
``{0..n}``, so the stack keeps values, never a polynomial class: value rows
``f(0..n)``, and dot products with the evaluation rows ``λ(x)`` of a cached
Lagrange basis (``docs/ALGEBRA.md``).  :mod:`repro.poly.fastpath` supplies
those bases, Montgomery batch inversion, and power-table multi-point
evaluation; textbook interpolation and Horner evaluation live test-side in
``tests/reference/``.
"""

from repro.poly.fastpath import (
    LagrangeBasis,
    batch_inverse,
    lagrange_basis,
)

__all__ = [
    "LagrangeBasis",
    "batch_inverse",
    "lagrange_basis",
]
