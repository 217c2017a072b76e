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
"""

from __future__ import annotations

import dataclasses
from math import comb
from typing import Callable, List, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.signfn.utils import as_dense, involutority_error, spectral_scale_estimate

__all__ = ["pade_polynomial_coefficients", "sign_pade", "PadeResult"]


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
class PadeResult:
    """Result of a Padé-style sign iteration."""

    sign: np.ndarray
    iterations: int
    converged: bool
    residual_history: List[float]
    involutority_history: List[float]
    flops: float


def sign_pade(
    matrix: Union[np.ndarray, sp.spmatrix],
    order: int = 3,
    convergence_threshold: float = 1e-10,
    max_iterations: int = 100,
    track_involutority: bool = True,
    callback: Optional[Callable[[int, np.ndarray], None]] = None,
) -> PadeResult:
    """Dense Padé-style sign iteration of the given convergence order.

    Parameters
    ----------
    matrix:
        Square matrix without purely imaginary eigenvalues.
    order:
        Convergence order (2 = Newton–Schulz, 3 = Eq. 19, ...).
    convergence_threshold:
        Stop when the involutority error ||X² − I||_F / sqrt(n) falls below
        this value.  The paper (Fig. 13) argues that the involutority — not
        the energy — is the appropriate convergence measure for the
        low-precision iterations.
    max_iterations:
        Hard iteration cap.
    track_involutority:
        Whether to keep the per-iteration involutority history.
    callback:
        Optional function called as ``callback(iteration, X)`` after every
        iteration; used by the precision study to record per-iteration
        energies.
    """
    coefficients = pade_polynomial_coefficients(order)
    x = np.array(as_dense(matrix), dtype=float)
    n = x.shape[0]
    if x.shape[0] != x.shape[1]:
        raise ValueError("sign function requires a square matrix")
    scale = spectral_scale_estimate(x)
    x /= scale
    identity = np.eye(n)
    residual_history: List[float] = []
    involutority_history: List[float] = []
    flops = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        x_squared = x @ x
        flops += 2.0 * n**3
        # evaluate the polynomial in X^2 by Horner's rule
        poly = coefficients[-1] * identity
        for coefficient in coefficients[-2::-1]:
            poly = poly @ x_squared + coefficient * identity
            flops += 2.0 * n**3
        update = x @ poly
        flops += 2.0 * n**3
        residual = float(np.linalg.norm(update - x)) / np.sqrt(n)
        residual_history.append(residual)
        x = update
        involutority = involutority_error(x) / np.sqrt(n)
        if track_involutority:
            involutority_history.append(float(involutority))
        if callback is not None:
            callback(iterations, x)
        if involutority < convergence_threshold:
            converged = True
            break
    return PadeResult(
        sign=x,
        iterations=iterations,
        converged=converged,
        residual_history=residual_history,
        involutority_history=involutority_history,
        flops=flops,
    )
