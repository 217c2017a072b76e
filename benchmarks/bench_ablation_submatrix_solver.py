"""Ablation — per-submatrix solver: eigendecomposition vs. sign iterations.

Paper, Sec. IV-F: "For computing the sign function of our dense submatrices,
we found this [eigendecomposition] approach to be superior to iterative
approaches."  This ablation times the three per-submatrix solvers of the
reproduction (dsyevd-style eigendecomposition, the engine's batched
2nd-order Newton–Schulz kernel on a stack of one, 3rd-order Padé) on a
realistic dense submatrix, checks that they agree on the result and lists
each solver's modeled FLOPs from the one work function (:mod:`repro.work`).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.chem import orthogonalized_ks
from repro.core.submatrix import extract_block_submatrix
from repro.dbcsr.convert import block_matrix_from_csr
from repro.signfn import (
    sign_newton_schulz_batched,
    sign_pade,
    sign_via_eigendecomposition,
)
from repro.work import newton_schulz_flops, submatrix_flop_costs

from common import report

EPS_FILTER = 1e-5


def run_ablation(pair, mu):
    k_ortho, _ = orthogonalized_ks(pair.K, pair.S, eps_filter=EPS_FILTER)
    blocked = block_matrix_from_csr(k_ortho, pair.blocks.block_sizes)
    submatrix = extract_block_submatrix(blocked, list(range(16))).data
    shifted = submatrix - mu * np.eye(submatrix.shape[0])

    timings = {}
    results = {}

    start = time.perf_counter()
    results["eigendecomposition"] = sign_via_eigendecomposition(shifted)
    timings["eigendecomposition"] = time.perf_counter() - start

    start = time.perf_counter()
    newton = sign_newton_schulz_batched(shifted[None], convergence_threshold=1e-12)
    results["newton-schulz (order 2)"] = newton.sign[0]
    timings["newton-schulz (order 2)"] = time.perf_counter() - start

    start = time.perf_counter()
    pade = sign_pade(shifted, order=3, convergence_threshold=1e-12)
    timings["pade (order 3)"] = time.perf_counter() - start
    results["pade (order 3)"] = pade.sign

    dimension = submatrix.shape[0]
    flops = {
        "eigendecomposition": float(submatrix_flop_costs([dimension])[0]),
        # ``newton.sign`` takes the last step on all d columns
        "newton-schulz (order 2)": newton_schulz_flops(
            dimension, int(newton.iterations[0]), dimension
        ),
        "pade (order 3)": pade.flops,
    }
    rows = []
    reference = results["eigendecomposition"]
    for name in ("eigendecomposition", "newton-schulz (order 2)", "pade (order 3)"):
        deviation = float(np.max(np.abs(results[name] - reference)))
        iterations = {
            "eigendecomposition": 1,
            "newton-schulz (order 2)": int(newton.iterations[0]),
            "pade (order 3)": pade.iterations,
        }[name]
        rows.append(
            [name, dimension, timings[name], iterations, deviation, flops[name]]
        )
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_submatrix_solver(benchmark, water64_pair, gap_mu):
    _, pair = water64_pair
    rows = benchmark.pedantic(
        lambda: run_ablation(pair, gap_mu), rounds=1, iterations=1
    )
    report(
        "ablation_submatrix_solver",
        [
            "solver",
            "dimension",
            "seconds",
            "iterations",
            "max deviation",
            "modeled flops",
        ],
        rows,
        "Ablation: per-submatrix sign solvers (Sec. IV-F)",
    )
    # all solvers agree on the sign matrix
    for row in rows:
        assert row[4] < 1e-6
