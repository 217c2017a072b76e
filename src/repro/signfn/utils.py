"""Shared helpers for the sign-function iterations.

The Newton–Schulz and Padé iterations converge only when the spectral radius
of the iterate stays below sqrt(3) (2nd order) / within the basin of the
fixed points ±1, so the input matrix is prescaled by an upper bound of its
spectral radius.  CP2K uses cheap norm bounds for the same purpose.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SYMMETRY_TOLERANCE",
    "spectral_scale_estimate",
    "involutority_error",
    "as_dense",
    "check_finite",
]

#: Largest ``|A − Aᵀ|`` the symmetric sign kernels accept as symmetric (the
#: Newton–Schulz kernel measures it on its prescaled stack).
SYMMETRY_TOLERANCE = 1e-8


def as_dense(matrix: Union[np.ndarray, sp.spmatrix]) -> np.ndarray:
    """Return a dense float array view/copy of ``matrix``."""
    if sp.issparse(matrix):
        return matrix.toarray()
    return np.asarray(matrix, dtype=float)


def check_finite(values: np.ndarray) -> None:
    """Refuse NaN/Inf input before a sign iteration starts."""
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix contains non-finite values (NaN or Inf)")


def spectral_scale_estimate(matrix: Union[np.ndarray, sp.spmatrix]) -> float:
    """Upper bound of the spectral radius used to prescale sign iterations.

    Uses the geometric mean of the 1-norm and the infinity-norm, which bounds
    the spectral radius from above for any matrix and is cheap to evaluate on
    sparse storage (this is the standard prescaling of Newton–Schulz-type
    iterations, also used by CP2K).
    """
    if sp.issparse(matrix):
        abs_matrix = abs(matrix)
        one_norm = float(abs_matrix.sum(axis=0).max())
        inf_norm = float(abs_matrix.sum(axis=1).max())
    else:
        dense = np.abs(np.asarray(matrix, dtype=float))
        one_norm = float(dense.sum(axis=0).max())
        inf_norm = float(dense.sum(axis=1).max())
    bound = np.sqrt(one_norm * inf_norm)
    if bound == 0.0:
        return 1.0
    return bound


def involutority_error(matrix: Union[np.ndarray, sp.spmatrix]) -> float:
    """Frobenius norm of X² − I, the paper's convergence measure (Fig. 13).

    The exact sign function is involutory (sign(A)² = I); the deviation from
    involutority measures how far an iterate is from convergence and, in
    reduced precision, the attainable noise floor.
    """
    if sp.issparse(matrix):
        n = matrix.shape[0]
        residual = (matrix @ matrix - sp.identity(n, format=matrix.format)).toarray()
        return float(np.linalg.norm(residual))
    dense = np.asarray(matrix, dtype=float)
    n = dense.shape[0]
    residual = dense @ dense - np.eye(n)
    return float(np.linalg.norm(residual))
