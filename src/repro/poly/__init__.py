"""Polynomial substrate: univariate + bivariate polynomials over GF(p).

:mod:`repro.poly.fastpath` supplies the shared algebra fast path — cached
Lagrange bases with their evaluation rows, Montgomery batch inversion, and
power-table multi-point evaluation.  Protocol code interpolates exclusively
through this package so no Lagrange basis is ever constructed ad hoc.
"""

from repro.poly.bivariate import BivariatePolynomial, masking_polynomial
from repro.poly.fastpath import (
    LagrangeBasis,
    batch_inverse,
    interpolate_values,
    lagrange_basis,
)
from repro.poly.univariate import (
    Polynomial,
    interpolate_at_zero,
    lagrange_interpolate,
)

__all__ = [
    "BivariatePolynomial",
    "LagrangeBasis",
    "Polynomial",
    "batch_inverse",
    "interpolate_at_zero",
    "interpolate_values",
    "lagrange_basis",
    "lagrange_interpolate",
    "masking_polynomial",
]
