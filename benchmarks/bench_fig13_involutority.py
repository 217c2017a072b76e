"""Figure 13 — deviation from involutority ‖X² − I‖_F per iteration and
precision.

Paper: the involutority violation of the third-order sign iteration drops to
~1e-12 in FP64, ~1e-5 in FP32 and plateaus at a much higher noise floor in
FP16/FP16'; this (not the energy) is the appropriate convergence criterion.

Reproduction: same setup as Fig. 12, reporting the involutority history.
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
MODES = ("FP16", "FP16'", "FP32", "FP64")


def run_figure13(pair, mu):
    k_ortho, _ = orthogonalized_ks(pair.K, pair.S, eps_filter=EPS_FILTER)
    blocked = block_matrix_from_csr(k_ortho, pair.blocks.block_sizes)
    submatrix = extract_block_submatrix(blocked, list(range(32))).data
    histories = {
        mode: sign_pade(
            submatrix,
            mu=mu,
            precision=mode,
            convergence_threshold=0.0,
            max_iterations=N_ITERATIONS,
        )
        for mode in MODES
    }
    rows = []
    for iteration in range(N_ITERATIONS):
        rows.append(
            [iteration + 1]
            + [histories[mode].involutority_history[iteration] for mode in MODES]
        )
    return rows


@pytest.mark.benchmark(group="fig13")
def test_fig13_involutority(benchmark, water64_pair, gap_mu):
    _, pair = water64_pair
    rows = benchmark.pedantic(
        lambda: run_figure13(pair, gap_mu), rounds=1, iterations=1
    )
    report(
        "fig13_involutority",
        ["iteration", "FP16", "FP16'", "FP32", "FP64"],
        rows,
        "Figure 13: ||X^2 - I||_F per sign iteration and precision",
    )
    table = np.array(rows, dtype=float)
    floors = {mode: table[:, 1 + index].min() for index, mode in enumerate(MODES)}
    # noise floors are ordered by precision (the core message of Fig. 13)
    assert floors["FP64"] < floors["FP32"] < floors["FP16"]
    # FP64 actually converges to a tiny involutority violation
    assert floors["FP64"] < 1e-8
    # FP16 plateaus at a visible noise floor instead of converging
    assert floors["FP16"] > 1e-4
