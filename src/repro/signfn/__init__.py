"""Matrix sign function algorithms and related matrix functions.

The engine runs the paper's two per-submatrix sign solvers
(:mod:`repro.signfn.registry`):

* the eigendecomposition-based evaluation with the sign(0) = 0 extension
  (Eq. 12) and its finite-temperature generalization via the Fermi function,
  which the paper found superior for the dense submatrices
  (:mod:`repro.signfn.eigen`);
* the 2nd-order Newton–Schulz iteration (Eq. 11) — CP2K's default for
  grand-canonical linear-scaling DFT and the baseline in the evaluation —
  in dense, batched and sparse (filtered) variants
  (:mod:`repro.signfn.newton_schulz`).

The higher-order Padé-style iterations of :mod:`repro.signfn.pade` (Eq. 19
for the 3rd order) serve the GPU/FPGA study of :mod:`repro.accel`, not the
engine.  :mod:`repro.signfn.inverse_root` implements the inverse p-th roots
of the original submatrix-method publication, and :mod:`repro.signfn.utils`
the shared spectral-scaling and convergence helpers.
"""

from repro.signfn.newton_schulz import (
    BatchedNewtonSchulzResult,
    NewtonSchulzResult,
    sign_newton_schulz,
    sign_newton_schulz_batched,
    sign_newton_schulz_filtered_dense,
    sign_newton_schulz_sparse,
)
from repro.signfn.pade import pade_polynomial_coefficients, sign_pade, PadeResult
from repro.signfn.eigen import (
    sign_via_eigendecomposition,
    sign_via_eigendecomposition_batched,
)
from repro.signfn.inverse_root import inverse_pth_root, inverse_pth_root_newton
from repro.signfn.utils import involutority_error, spectral_scale_estimate
from repro.signfn.registry import (
    BoundKernel,
    DEFAULT_SIGN_MAX_ITERATIONS,
    KernelStackSolver,
    MatrixFunction,
    UnknownKernelError,
    available_kernels,
    get_kernel,
    resolve_kernel,
)

__all__ = [
    "NewtonSchulzResult",
    "BatchedNewtonSchulzResult",
    "sign_newton_schulz",
    "sign_newton_schulz_batched",
    "sign_newton_schulz_filtered_dense",
    "sign_newton_schulz_sparse",
    "pade_polynomial_coefficients",
    "sign_pade",
    "PadeResult",
    "sign_via_eigendecomposition",
    "sign_via_eigendecomposition_batched",
    "inverse_pth_root",
    "inverse_pth_root_newton",
    "involutority_error",
    "spectral_scale_estimate",
    "MatrixFunction",
    "BoundKernel",
    "UnknownKernelError",
    "KernelStackSolver",
    "DEFAULT_SIGN_MAX_ITERATIONS",
    "get_kernel",
    "available_kernels",
    "resolve_kernel",
]
