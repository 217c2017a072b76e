"""Higher-order Padé-style sign iterations.

The family of iterations

    X_{k+1} = X_k · Σ_{j=0}^{m} C(-1/2, j) (X_k² − I)^j

(with C the generalized binomial coefficient) converges to sign(A) with order
m+1.  The first member (m = 1) is the 2nd-order Newton–Schulz iteration of
Eq. 11; the second member (m = 2) is the third-order iteration of Eq. 19,

    X_{k+1} = 1/8 · X_k (15 I − 10 X_k² + 3 X_k⁴),

which the paper uses for the GPU tensor-core and FPGA implementations because
it needs only matrix multiplications and therefore maps directly onto GEMM
hardware.  Higher orders correspond to the arbitrary-order iterations of
Richters et al. referenced in Sec. II-B.

:func:`sign_pade` is the one implementation of the family, in any of the
precision modes of :mod:`repro.accel.precision`: the per-submatrix solver
ablation runs it in FP64 to a threshold, the precision study of Figs. 12/13
runs a fixed sweep of Eq. 19 in FP16, FP16', FP32 and FP64 and reads the
per-iteration histories.  Those are evaluated in float64 whatever the
iteration precision, like measuring a device's iterate on the host.
"""

from __future__ import annotations

import dataclasses
from math import comb
from typing import List, Union

import numpy as np
import scipy.sparse as sp

from repro.accel.precision import PRECISION_MODES, convert, gemm
from repro.signfn.utils import (
    as_dense,
    check_finite,
    involutority_error,
    spectral_scale_estimate,
)
from repro.work import gemm_flops

__all__ = ["pade_polynomial_coefficients", "sign_pade", "PadeSignResult"]


def _binomial_half(j: int) -> float:
    """Generalized binomial coefficient C(-1/2, j)."""
    # C(-1/2, j) = (-1)^j * C(2j, j) / 4^j
    return (-1.0) ** j * comb(2 * j, j) / 4.0**j


def pade_polynomial_coefficients(order: int) -> np.ndarray:
    """Polynomial coefficients of the order-``order`` sign iteration.

    Returns the coefficients ``a`` such that the iteration reads

        X_{k+1} = X_k · Σ_i  a[i] · (X_k²)^i .

    For ``order == 2`` this returns [3/2, -1/2] (Newton–Schulz, Eq. 11), for
    ``order == 3`` it returns [15/8, -10/8, 3/8] (Eq. 19).
    """
    if order < 2:
        raise ValueError("iteration order must be at least 2")
    m = order - 1
    # expand sum_j C(-1/2, j) (y - 1)^j in powers of y (y = X^2)
    coefficients = np.zeros(m + 1)
    for j in range(m + 1):
        cj = _binomial_half(j)
        # (y - 1)^j = sum_i C(j, i) y^i (-1)^(j-i)
        for i in range(j + 1):
            coefficients[i] += cj * comb(j, i) * (-1.0) ** (j - i)
    return coefficients


@dataclasses.dataclass
class PadeSignResult:
    """Result of a Padé-style sign iteration.

    Attributes
    ----------
    sign:
        The converged (or last) iterate, as float64.
    iterations:
        Number of iterations performed.
    converged:
        Whether the involutority fell below the threshold.
    involutority_history:
        ||X_k² − I||_F per iteration (Fig. 13).
    energy_history:
        Band-structure energy 2·tr(½(I − X_k)·A) of the unshifted input A
        per iteration: with A the orthogonalized Kohn–Sham (sub)matrix and μ
        inside its gap, the energy of the doubly occupied states (Fig. 12).
    flops:
        Floating-point operations spent in the iteration GEMMs.
    """

    sign: np.ndarray
    iterations: int
    converged: bool
    involutority_history: List[float]
    energy_history: List[float]
    flops: float


def sign_pade(
    matrix: Union[np.ndarray, sp.spmatrix],
    order: int = 3,
    mu: float = 0.0,
    precision: str = "FP64",
    convergence_threshold: float = 1e-10,
    max_iterations: int = 100,
) -> PadeSignResult:
    """Padé-style sign iteration for sign(A − μI) of the given convergence order.

    Parameters
    ----------
    matrix:
        Square matrix without purely imaginary eigenvalues (after the shift);
        NaN/Inf entries are a :class:`ValueError`.
    order:
        Convergence order (2 = Newton–Schulz, 3 = Eq. 19, ...).
    mu:
        Shift (chemical potential); the iterate starts from (A − μI)/s, with
        s the spectral-radius bound of the shifted matrix.
    precision:
        One of "FP16", "FP16'", "FP32", "FP64": the iterate is stored in that
        mode's dtype and every GEMM runs through
        :func:`~repro.accel.precision.gemm`.
    convergence_threshold:
        Stop when the involutority error ||X² − I||_F / sqrt(n) falls below
        this value.  The paper (Fig. 13) argues that the involutority — not
        the energy — is the appropriate convergence measure for the
        low-precision iterations; ``0.0`` runs a fixed sweep of
        ``max_iterations``.
    max_iterations:
        Hard iteration cap.  A non-finite involutority (an overflowing
        iterate) also ends the iteration, as not converged.
    """
    coefficients = pade_polynomial_coefficients(order)
    try:
        mode = PRECISION_MODES[precision]
    except KeyError as exc:
        raise KeyError(
            f"unknown precision {precision!r}; available: {sorted(PRECISION_MODES)}"
        ) from exc
    dense = as_dense(matrix)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValueError("sign function requires a square matrix")
    check_finite(dense)
    n = dense.shape[0]
    shifted = dense - mu * np.eye(n)
    x = convert(shifted / spectral_scale_estimate(shifted), mode)
    # the polynomial's coefficients times I, in the storage precision
    terms = [(c * np.eye(n)).astype(mode.storage_dtype) for c in coefficients]
    transposed = dense.T.copy()  # the energy's operand, laid out once
    involutority_history: List[float] = []
    energy_history: List[float] = []
    flops = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        x_squared = gemm(x, x, mode)
        # evaluate the polynomial in X^2 by Horner's rule
        poly = terms[-1]
        for term in terms[-2::-1]:
            poly = gemm(poly, x_squared, mode) + term
        x = gemm(x, poly, mode)
        flops += (len(coefficients) + 1) * gemm_flops(n, n, n)
        # the histories in float64, whatever the iteration precision
        sign = x.astype(np.float64, copy=False)
        involutority = involutority_error(sign)
        involutority_history.append(involutority)
        density = 0.5 * (np.eye(n) - sign)
        energy_history.append(float(2.0 * np.tensordot(density, transposed, axes=2)))
        # a non-finite iterate never recovers: stop, not converged
        if not np.isfinite(involutority):
            break
        if involutority / np.sqrt(n) < convergence_threshold:
            converged = True
            break
    return PadeSignResult(
        sign=x.astype(np.float64),
        iterations=iterations,
        converged=converged,
        involutority_history=involutority_history,
        energy_history=energy_history,
        flops=flops,
    )
