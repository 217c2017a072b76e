"""Mixed-precision third-order sign iteration with convergence tracking.

Reproduces the numerical experiment behind Figs. 12 and 13 of the paper: the
third-order Padé sign iteration (Eq. 19) is executed on the dense submatrix
of a group of water molecules in FP16, FP16', FP32 and FP64, and for every
iteration two quantities are recorded:

* the band-structure energy of the represented molecules computed from the
  current iterate (its difference to the converged FP64 result is what
  Fig. 12 plots), and
* the violation of the involutority condition ‖X_k² − I‖_F (Fig. 13), which
  the paper identifies as the appropriate convergence criterion because the
  energy alone would signal convergence too early — and in FP16/FP16' the
  noise floor would prevent detecting convergence at all.

All bookkeeping (energy, involutority) is evaluated in float64 regardless of
the iteration precision, exactly like measuring the converged result on the
host after a device run.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.accel.precision import PRECISION_MODES, PrecisionMode, convert, gemm
from repro.signfn.pade import pade_polynomial_coefficients
from repro.signfn.utils import as_dense, spectral_scale_estimate

__all__ = ["MixedPrecisionSignResult", "mixed_precision_sign_iteration"]


@dataclasses.dataclass
class MixedPrecisionSignResult:
    """Per-iteration history of a reduced-precision sign iteration.

    Attributes
    ----------
    mode:
        Precision mode used for the iteration.
    sign:
        Final iterate (float64 copy).
    energies:
        Band-structure energy per iteration (eV), evaluated in float64 from
        the current iterate; empty if no Hamiltonian was supplied.
    involutority:
        ‖X_k² − I‖_F per iteration (float64).
    iterations:
        Number of iterations performed.
    flops:
        Floating-point operations spent in the iteration GEMMs.
    """

    mode: PrecisionMode
    sign: np.ndarray
    energies: List[float]
    involutority: List[float]
    iterations: int
    flops: float


def mixed_precision_sign_iteration(
    matrix: Union[np.ndarray, sp.spmatrix],
    precision: Union[str, PrecisionMode] = "FP64",
    mu: float = 0.0,
    order: int = 3,
    n_iterations: int = 14,
    hamiltonian: Optional[np.ndarray] = None,
    spin_degeneracy: float = 2.0,
) -> MixedPrecisionSignResult:
    """Run the order-``order`` sign iteration in the given precision.

    Parameters
    ----------
    matrix:
        Symmetric (sub)matrix, typically the orthogonalized Kohn–Sham
        submatrix of a group of molecules.
    precision:
        One of "FP16", "FP16'", "FP32", "FP64" or a :class:`PrecisionMode`.
    mu:
        Chemical potential; sign((matrix − μI)/s) is iterated.
    order:
        Convergence order of the Padé iteration (3 reproduces Eq. 19).
    n_iterations:
        Fixed number of iterations (the paper runs a fixed sweep and inspects
        the histories rather than stopping adaptively).
    hamiltonian:
        Optional Hamiltonian (same basis as ``matrix``) used to evaluate the
        per-iteration band-structure energy; defaults to ``matrix`` itself,
        which is the orthogonalized Kohn–Sham submatrix in the paper's setup.
    spin_degeneracy:
        Occupation of each orbital (2 for closed shells).
    """
    if isinstance(precision, str):
        try:
            mode = PRECISION_MODES[precision]
        except KeyError as exc:
            raise KeyError(
                f"unknown precision {precision!r}; available: "
                f"{sorted(PRECISION_MODES)}"
            ) from exc
    else:
        mode = precision
    dense = as_dense(matrix)
    n = dense.shape[0]
    if dense.shape[0] != dense.shape[1]:
        raise ValueError("sign iteration requires a square matrix")
    if hamiltonian is None:
        hamiltonian = dense
    else:
        hamiltonian = as_dense(hamiltonian)
        if hamiltonian.shape != dense.shape:
            raise ValueError("hamiltonian must have the same shape as the matrix")

    shifted = dense - mu * np.eye(n)
    scale = spectral_scale_estimate(shifted)
    x64 = shifted / scale
    coefficients = pade_polynomial_coefficients(order)

    x = convert(x64, mode)
    identity = np.eye(n, dtype=mode.storage_dtype)
    energies: List[float] = []
    involutority: List[float] = []
    flops = 0.0
    for _ in range(n_iterations):
        x_squared = gemm(x, x, mode)
        flops += 2.0 * n**3
        poly = (coefficients[-1] * identity).astype(mode.storage_dtype)
        for coefficient in coefficients[-2::-1]:
            poly = gemm(poly, x_squared, mode) + (
                coefficient * identity
            ).astype(mode.storage_dtype)
            flops += 2.0 * n**3
        x = gemm(x, poly, mode)
        flops += 2.0 * n**3
        # diagnostics in float64
        x_as64 = x.astype(np.float64)
        density = 0.5 * (np.eye(n) - x_as64)
        energy = float(spin_degeneracy * np.tensordot(density, hamiltonian.T, axes=2))
        energies.append(energy)
        involutority.append(float(np.linalg.norm(x_as64 @ x_as64 - np.eye(n))))
    return MixedPrecisionSignResult(
        mode=mode,
        sign=x.astype(np.float64),
        energies=energies,
        involutority=involutority,
        iterations=n_iterations,
        flops=flops,
    )
