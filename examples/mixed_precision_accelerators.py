#!/usr/bin/env python
"""Low/mixed-precision sign iterations and accelerator throughput (Sec. VI).

Because the submatrix method turns the sparse sign-function evaluation into
dense matrix algebra on local submatrices, it can exploit GPU tensor cores
and FPGAs, and it tolerates reduced precision.  This example reproduces both
halves of the paper's hardware-acceleration study:

* the *numerics*: the third-order Padé sign iteration (Eq. 19) is run on the
  combined submatrix of 32 water molecules in FP16, FP16', FP32 and FP64
  (emulated with NumPy dtypes; the emulated FP16 computes as FP16'),
  tracking the energy and the involutority violation per iteration
  (Figs. 12 and 13);
* the *throughput*: the analytic device model recomputes Table I (peak vs.
  practical GEMM vs. end-to-end sign-algorithm TFLOP/s) for the RTX 2080 Ti
  and the Stratix 10 FPGA.

Run with:  python examples/mixed_precision_accelerators.py
"""

import numpy as np

from repro.accel import RTX_2080_TI, STRATIX_10, performance_table
from repro.chem import HamiltonianModel, build_matrices, orthogonalized_ks, water_box
from repro.core.submatrix import extract_block_submatrix
from repro.dbcsr.convert import block_matrix_from_csr
from repro.signfn import sign_pade


def main() -> None:
    # combined submatrix of the first 32-molecule building block
    system = water_box((2, 1, 1))
    model = HamiltonianModel()
    pair = build_matrices(system, model=model)
    mu = model.homo_lumo_gap_center()
    k_ortho, _ = orthogonalized_ks(pair.K, pair.S, eps_filter=1e-5)
    blocked = block_matrix_from_csr(k_ortho, pair.blocks.block_sizes)
    submatrix = extract_block_submatrix(blocked, list(range(32))).data
    print(f"combined submatrix of 32 H2O molecules: dimension {submatrix.shape[0]}\n")

    # --- numerics: Figs. 12/13 ------------------------------------------ #
    histories = {
        mode: sign_pade(
            submatrix,
            mu=mu,
            precision=mode,
            convergence_threshold=0.0,
            max_iterations=12,
        )
        for mode in ("FP16", "FP16'", "FP32", "FP64")
    }
    reference = histories["FP64"].energy_history[-1]
    print("energy difference to converged FP64 (meV per molecule-atom) and "
          "involutority ||X^2 - I||_F:")
    header = f"{'iter':>4s}"
    for mode in histories:
        header += f"  {mode + ' dE':>12s} {mode + ' inv':>10s}"
    print(header)
    for k in range(12):
        line = f"{k + 1:>4d}"
        for mode, history in histories.items():
            energy_difference = (history.energy_history[k] - reference) / 96 * 1000
            involutority = history.involutority_history[k]
            line += f"  {energy_difference:>12.4f} {involutority:>10.2e}"
        print(line)

    floors = {mode: min(h.involutority_history) for mode, h in histories.items()}
    print("\ninvolutority noise floors:", {m: f"{v:.1e}" for m, v in floors.items()})

    # --- throughput: Table I -------------------------------------------- #
    print("\nTable I (modelled end-to-end sign-algorithm throughput, n = 3972):")
    print(
        f"{'device':<38s} {'prec':>6s} {'peak':>8s} {'GEMM':>8s} "
        f"{'sign':>8s} {'GF/(W s)':>9s}"
    )
    for device in (RTX_2080_TI, STRATIX_10):
        for row in performance_table(device, matrix_dimension=3972):
            print(
                f"{row.device:<38s} {row.precision:>6s} {row.peak_tflops:>8.1f} "
                f"{row.gemm_tflops:>8.1f} {row.overall_tflops:>8.1f} "
                f"{row.gflops_per_watt_second:>9.1f}"
            )


if __name__ == "__main__":
    main()
