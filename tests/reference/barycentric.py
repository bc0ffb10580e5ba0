"""Barycentric evaluation of an interpolant, the way ``repro.poly.fastpath``
did it before evaluation rows: two batch inversions per call.

For distinct nodes ``x_1 .. x_m`` with weights
``w_i = 1 / prod_{j != i} (x_i - x_j)``, the degree-``< m`` polynomial
through ``(x_i, y_i)`` evaluates at a non-node ``x`` as

    f(x) = [ sum_i  w_i / (x - x_i) * y_i ]  /  [ sum_i  w_i / (x - x_i) ],

and at a node as its own value.  All ``(x - x_i)`` differences go through
one Montgomery inversion and the per-point denominators through a second.
``LagrangeBasis.evaluate_many_at`` must equal it
(``tests/test_fastpath.py``).  No import from ``repro``."""


def batch_inverse(prime, values):
    """Montgomery's trick: every inverse with one ``pow``."""
    canonical = [v % prime for v in values]
    if not canonical:
        return []
    prefix = [1]
    for v in canonical:
        if v == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        prefix.append(prefix[-1] * v % prime)
    inv = pow(prefix[-1], prime - 2, prime)
    out = [0] * len(canonical)
    for i in range(len(canonical) - 1, -1, -1):
        out[i] = prefix[i] * inv % prime
        inv = inv * canonical[i] % prime
    return out


def weights(prime, xs):
    denoms = []
    for i, x_i in enumerate(xs):
        d = 1
        for j, x_j in enumerate(xs):
            if j != i:
                d = d * (x_i - x_j) % prime
        denoms.append(d)
    return batch_inverse(prime, denoms)


def evaluate_many_at(prime, xs, ys, points):
    """The interpolant through ``(xs[i], ys[i])`` at every point."""
    xs = [x % prime for x in xs]
    index = {x: i for i, x in enumerate(xs)}
    w = weights(prime, xs)
    off_node = []  # flat (x - x_i) differences of the off-node points
    plan = []  # per point: the node index, or None when off-node
    for x in points:
        x %= prime
        i = index.get(x)
        plan.append(i)
        if i is None:
            off_node.extend(x - x_i for x_i in xs)
    invs = batch_inverse(prime, off_node)
    numerators, denominators = [], []
    m = len(xs)
    for pos in range(0, len(invs), m):
        num = den = 0
        for w_i, y, inv in zip(w, ys, invs[pos : pos + m]):
            coeff = w_i * inv % prime
            num += coeff * y
            den += coeff
        numerators.append(num % prime)
        denominators.append(den % prime)
    den_invs = iter(batch_inverse(prime, denominators))
    quotients = iter(numerators)
    return [
        ys[i] % prime if i is not None else next(quotients) * next(den_invs) % prime
        for i in plan
    ]
