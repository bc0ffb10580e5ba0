"""SVSS reconstruct steps 2-3 (paper §4) the way ``core.svss`` computed them
on polynomial objects: fit a coefficient vector through every row and
column of the children's outputs, build ``f̄`` from the first ``t + 1``
surviving rows, and evaluate every check by Horner's rule.

``SVSSInstance._compute_output`` now works on value rows over ``0..n`` with
bases keyed by pid mask; it must return the same output and ignore set
``I_j`` as :func:`compute_output`, and ⊥ exactly when this does
(``tests/test_svss.py``).  ``src/`` has no polynomial class, so
:func:`interpolate`, :func:`horner` and :func:`evaluate` are also the
tests' textbook algebra: the fast path is held to them, and the hiding
tests redraw the dealers' polynomials and build their masking witnesses
with them.  No import from ``repro``."""


def interpolate(prime, points):
    """Coefficients, low degree first, of the polynomial of degree
    ``< len(points)`` through ``points`` (textbook Lagrange)."""
    out = [0] * len(points)
    for i, (x_i, y_i) in enumerate(points):
        basis, denom = [1], 1
        for j, (x_j, _) in enumerate(points):
            if j != i:
                basis = [0] + basis  # times (x - x_j)
                for k in range(len(basis) - 1):
                    basis[k] = (basis[k] - x_j * basis[k + 1]) % prime
                denom = denom * (x_i - x_j) % prime
        scale = y_i * pow(denom, prime - 2, prime) % prime
        for k, c in enumerate(basis):
            out[k] = (out[k] + scale * c) % prime
    return out


def horner(prime, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % prime
    return acc


def interpolate_degree_t(prime, points, t):
    """Coefficients of the polynomial of degree ``<= t`` through every
    point, or None: fewer than ``t + 1`` points, or one off the fit through
    the first ``t + 1``.  Duplicate head x-coordinates raise ValueError."""
    if len(points) < t + 1:
        return None
    head = points[: t + 1]
    if len({x % prime for x, _ in head}) != t + 1:
        raise ValueError("duplicate x-coordinates")
    coeffs = interpolate(prime, head)
    if any(horner(prime, coeffs, x) != y % prime for x, y in points[t + 1 :]):
        return None
    return coeffs


def from_rows(prime, t, rows):
    """The degree-(t, t) ``f(x, y) = sum_k g_k(y) λ_k(x)`` through ``t + 1``
    rows ``(k, g_k coefficients)``; ``[i][j]`` multiplies ``x^i y^j``."""
    xs = [k for k, _ in rows]
    if len(rows) != t + 1 or len(set(xs)) != len(xs):
        raise ValueError("need t + 1 rows with distinct indices")
    coeffs = [[0] * (t + 1) for _ in range(t + 1)]
    for k, g_k in rows:
        if len(g_k) > t + 1:
            raise ValueError(f"row {k} has degree above t={t}")
        lam = interpolate(prime, [(x, int(x == k)) for x in xs])
        for i, b in enumerate(lam):
            for j, c in enumerate(g_k):
                coeffs[i][j] = (coeffs[i][j] + b * c) % prime
    return coeffs


def evaluate(prime, coeffs, x, y):
    return horner(prime, [horner(prime, row, y) for row in coeffs], x)


def compute_output(prime, t, g_hat, g_hat_map, outputs, bottom):
    """``(value, ignored)``: R's output (``f̄(0, 0)`` or ``bottom``) and
    ``I_j``.  ``outputs[(k, l, slot)]`` is the output of the pair invocation
    with dealer ``k``, moderator ``l`` and slot ``"dm"`` (``f(k, l)``) or
    ``"md"`` (``f(l, k)``)."""
    ignored, rows, cols = set(), {}, {}
    for k in g_hat:
        row_points, col_points = [], []
        for l in g_hat_map[k]:
            r_kkl, r_klk = outputs[(k, l, "dm")], outputs[(k, l, "md")]
            if r_kkl is bottom or r_klk is bottom:
                ignored.add(k)
                break
            row_points.append((l, r_kkl))
            col_points.append((l, r_klk))
        else:
            g_k = interpolate_degree_t(prime, row_points, t)
            h_k = interpolate_degree_t(prime, col_points, t)
            if g_k is None or h_k is None:
                ignored.add(k)
            else:
                rows[k], cols[k] = g_k, h_k
    survivors = [k for k in g_hat if k not in ignored]
    for k in survivors:
        for l in survivors:
            if horner(prime, cols[k], l) != horner(prime, rows[l], k):
                return bottom, ignored
    if len(survivors) < t + 1:
        return bottom, ignored
    f_bar = from_rows(prime, t, [(k, rows[k]) for k in survivors[: t + 1]])
    for k in survivors:
        for l in survivors:
            value = evaluate(prime, f_bar, k, l)
            if value != horner(prime, rows[k], l) or value != horner(prime, cols[l], k):
                return bottom, ignored
    return f_bar[0][0], ignored
