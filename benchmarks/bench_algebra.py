"""Algebra fast-path benchmark — emits ``BENCH_algebra.json``.

Measures the two algebra kernels the protocol stack still uses:

1. **Batch inversion micro**: Montgomery batch inversion (under every
   Lagrange basis build) vs one Fermat ``pow`` per element.
2. **Backend × n matrix**: the row-shaped fast paths —
   ``LagrangeBasis.interpolate_rows`` and ``evaluate_rows`` — timed under
   the ``pure`` vs ``numpy`` algebra backends (``repro.field.backend``) at
   the coin's aggregate decode shape: ``2n²`` rows (one batch-ingested
   slot-vector group per degree-``t`` row) over nodes ``{1..t+1}``,
   evaluated at ``n`` points.  Results are asserted bit-identical across
   backends.  Acceptance gate: numpy ≥3× pure on both kernels at n ≥ 10.

End-to-end seconds are ``benchmarks/e2e``'s job (``BENCHMARK.json``), not
this file's.  The JSON artifact is committed at the repo root so the perf
trajectory is diffable across PRs.
"""

from __future__ import annotations

import platform
from random import Random

from bench_common import best_of, write_bench_json
from repro.analysis.tables import render_table
from repro.config import max_faults
from repro.field import available_backends, numpy_available, set_backend
from repro.field.gf import Field
from repro.poly.fastpath import batch_inverse, evaluate_rows, lagrange_basis

FIELD = Field()
INV_BATCH = 256
#: Backend-matrix sizes; the gate applies from BACKEND_GATE_N up.
BACKEND_NS = (4, 7, 10, 13, 16)
BACKEND_GATE_N = 10
BACKEND_GATE_SPEEDUP = 3.0
BACKEND_REPS = 20


def _batch_inverse_micro() -> dict:
    rng = Random(2)
    values = [rng.randrange(1, FIELD.prime) for _ in range(INV_BATCH)]

    def run_seed():
        for v in values:
            FIELD.inv(v)

    def run_fast():
        batch_inverse(FIELD, values)

    seed_s = best_of(run_seed, repeats=5)
    fast_s = best_of(run_fast, repeats=5)
    return {
        "batch_size": INV_BATCH,
        "seed_seconds": seed_s,
        "fastpath_seconds": fast_s,
        "speedup": seed_s / fast_s,
    }


def _backend_matrix() -> list[dict]:
    """Row-kernel wall-clock per backend at the coin's decode shapes.

    One coin invocation batch-ingests ``n²`` slot-vector groups per step;
    each group decodes degree-``t`` rows over nodes ``{1..t+1}`` and
    re-evaluates at the ``n`` protocol points — so ``2n²`` rows is the
    realistic aggregate a step hands the row kernels.  Timings pin the
    backend with ``set_backend`` around each measurement; results are
    asserted identical so the matrix is also an equivalence check.
    """
    rng = Random(3)
    series = []
    for n in BACKEND_NS:
        t = max_faults(n)
        m = t + 1
        nodes = list(range(1, m + 1))
        k = 2 * n * n
        ys_rows = [
            [rng.randrange(FIELD.prime) for _ in range(m)] for _ in range(k)
        ]
        coeff_rows = [
            [rng.randrange(FIELD.prime) for _ in range(m)] for _ in range(k)
        ]
        xs = list(range(1, n + 1))
        basis = lagrange_basis(FIELD, nodes)  # warm, as protocol runs do
        row: dict = {"n": n, "t": t, "rows": k, "reps": BACKEND_REPS}
        results: dict[str, tuple] = {}
        for backend in available_backends():
            set_backend(backend)

            def run_interp():
                for _ in range(BACKEND_REPS):
                    basis.interpolate_rows(ys_rows)

            def run_eval():
                for _ in range(BACKEND_REPS):
                    evaluate_rows(FIELD, coeff_rows, xs)

            row[backend] = {
                "interpolate_rows_seconds": best_of(run_interp, repeats=3),
                "evaluate_rows_seconds": best_of(run_eval, repeats=3),
            }
            results[backend] = (
                basis.interpolate_rows(ys_rows),
                evaluate_rows(FIELD, coeff_rows, xs),
            )
        set_backend("pure")
        reference = results["pure"]
        assert all(r == reference for r in results.values()), (
            f"backend results diverge at n={n}"
        )
        row["results_identical"] = True
        if "numpy" in row:
            row["interpolate_speedup"] = (
                row["pure"]["interpolate_rows_seconds"]
                / row["numpy"]["interpolate_rows_seconds"]
            )
            row["evaluate_speedup"] = (
                row["pure"]["evaluate_rows_seconds"]
                / row["numpy"]["evaluate_rows_seconds"]
            )
        series.append(row)
    return series


def test_bench_algebra(emit):
    inv = _batch_inverse_micro()
    backends = _backend_matrix()
    payload = {
        "python": platform.python_version(),
        "prime": FIELD.prime,
        "batch_inverse": inv,
        "backend_matrix": {
            "available": list(available_backends()),
            "gate": (
                f"numpy >= {BACKEND_GATE_SPEEDUP}x pure on interpolate_rows "
                f"and evaluate_rows at n >= {BACKEND_GATE_N}"
            ),
            "series": backends,
        },
    }
    path = write_bench_json("algebra", payload)

    emit(
        render_table(
            "Batch inversion",
            ["quantity", "value"],
            [
                [
                    f"batch inverse ({INV_BATCH} elems)",
                    f"{inv['speedup']:.1f}x vs per-element pow",
                ],
            ],
            note=f"artifact: {path.name}",
        )
    )
    if numpy_available():
        emit(
            render_table(
                "Algebra backend matrix: numpy vs pure row kernels",
                ["n", "rows", "interp pure s", "interp numpy s", "speedup",
                 "eval pure s", "eval numpy s", "speedup"],
                [
                    [
                        row["n"],
                        row["rows"],
                        f"{row['pure']['interpolate_rows_seconds']:.4f}",
                        f"{row['numpy']['interpolate_rows_seconds']:.4f}",
                        f"{row['interpolate_speedup']:.1f}x",
                        f"{row['pure']['evaluate_rows_seconds']:.4f}",
                        f"{row['numpy']['evaluate_rows_seconds']:.4f}",
                        f"{row['evaluate_speedup']:.1f}x",
                    ]
                    for row in backends
                ],
                note=(
                    f"2n² degree-t rows per call, {BACKEND_REPS} calls per "
                    "measurement; results bit-identical across backends"
                ),
            )
        )

    # Backend equivalence always holds; the ≥3× numpy gate applies where
    # numpy is importable, at n ≥ BACKEND_GATE_N.
    assert all(row["results_identical"] for row in backends), backends
    if numpy_available():
        for row in backends:
            if row["n"] < BACKEND_GATE_N:
                continue
            assert row["interpolate_speedup"] >= BACKEND_GATE_SPEEDUP, row
            assert row["evaluate_speedup"] >= BACKEND_GATE_SPEEDUP, row
