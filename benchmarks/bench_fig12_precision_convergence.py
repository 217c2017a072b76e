"""Figure 12 — convergence of the third-order sign iteration in different
precisions (energy view).

Paper: the combined submatrix of 32 water molecules (from an NREP = 5 SZV
system) is purified with the third-order Padé iteration (Eq. 19) in FP16,
FP16', FP32 and FP64 on a GPU; the resulting energies converge within 6-8
iterations and stay within ~5 meV/atom of the converged FP64 result even in
half precision.

Reproduction: the combined submatrix of the first 32-molecule building block
of a 64-molecule slab, iterated with the emulated precision modes
(:func:`repro.signfn.sign_pade` with ``precision=``, a fixed sweep); the
per-iteration energy difference to the converged FP64 result is reported.
The emulated FP16 accumulates in float32 like FP16' (see
:mod:`repro.accel.precision`), so the FP16 and FP16' columns are equal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chem import orthogonalized_ks
from repro.core.submatrix import extract_block_submatrix
from repro.dbcsr.convert import block_matrix_from_csr
from repro.signfn import sign_pade

from common import report

EPS_FILTER = 1e-5
N_ITERATIONS = 12


def _combined_submatrix(pair, mu):
    """Dense orthogonalized-KS submatrix of the first 32-molecule block."""
    k_ortho, _ = orthogonalized_ks(pair.K, pair.S, eps_filter=EPS_FILTER)
    blocked = block_matrix_from_csr(k_ortho, pair.blocks.block_sizes)
    submatrix = extract_block_submatrix(blocked, list(range(32)))
    return submatrix.data


def run_figure12(pair, mu, n_atoms_per_block=96):
    submatrix = _combined_submatrix(pair, mu)
    histories = {}
    for mode in ("FP16", "FP16'", "FP32", "FP64"):
        histories[mode] = sign_pade(
            submatrix,
            mu=mu,
            precision=mode,
            convergence_threshold=0.0,
            max_iterations=N_ITERATIONS,
        )
    reference_energy = histories["FP64"].energy_history[-1]
    rows = []
    for iteration in range(N_ITERATIONS):
        row = [iteration + 1]
        for mode in ("FP16", "FP16'", "FP32", "FP64"):
            difference_mev_per_atom = (
                (histories[mode].energy_history[iteration] - reference_energy)
                / n_atoms_per_block
                * 1000.0
            )
            row.append(difference_mev_per_atom)
        rows.append(row)
    return rows, submatrix.shape[0]


@pytest.mark.benchmark(group="fig12")
def test_fig12_precision_convergence(benchmark, water64_pair, gap_mu):
    _, pair = water64_pair
    rows, dimension = benchmark.pedantic(
        lambda: run_figure12(pair, gap_mu), rounds=1, iterations=1
    )
    report(
        "fig12_precision_convergence",
        [
            "iteration",
            "FP16 (meV/atom)",
            "FP16' (meV/atom)",
            "FP32 (meV/atom)",
            "FP64 (meV/atom)",
        ],
        rows,
        "Figure 12: energy difference to the converged FP64 result per sign "
        f"iteration (combined submatrix of 32 H2O, dimension {dimension})",
    )
    table = np.array(rows, dtype=float)
    # FP64 converges to itself
    assert abs(table[-1, 4]) < 1e-9
    # FP32 ends within a small fraction of a meV/atom of FP64
    assert abs(table[-1, 3]) < 1.0
    # half precision stays within ~100 meV/atom (paper: ~5 meV/atom on real
    # tensor cores; the emulation's float16 storage rounds every GEMM's
    # operands and result, its float32 accumulation matches FP16')
    assert abs(table[-1, 1]) < 100.0
    # the energies converge: late iterations change much less than early ones
    early_change = abs(table[1, 4] - table[0, 4])
    late_change = abs(table[-1, 4] - table[-2, 4])
    assert late_change <= early_change + 1e-12
