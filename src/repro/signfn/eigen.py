"""Eigendecomposition-based sign function.

For the dense submatrices the paper evaluates the sign function through a
symmetric eigendecomposition (Sec. IV-F, Eq. 17):

    A = Q Λ Qᵀ,   sign(A) = Q signum(Λ) Qᵀ,

with the extension signum(0) = 0 (Eq. 12), which is consistent with the
zero-temperature limit of the Fermi function (Eq. 13).  Replacing the signum
by the Fermi function directly yields finite-temperature occupations, and
keeping Q and Λ around allows the chemical potential to be adjusted without
recomputing the decomposition — both done on the engine's stacks by
:mod:`repro.api.observables` (Algorithm 1), with
:func:`repro.chem.density.fermi_occupation`.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.signfn.utils import as_dense

__all__ = [
    "extended_signum",
    "sign_via_eigendecomposition",
    "symmetric_eigendecomposition",
    "symmetric_eigendecomposition_batched",
    "sign_via_eigendecomposition_batched",
]


def extended_signum(values: np.ndarray, zero_tolerance: float = 0.0) -> np.ndarray:
    """Signum with the paper's extension signum(0) = 0 (Eq. 12).

    Values within ``zero_tolerance`` of zero are mapped to exactly 0, which
    corresponds to half occupation of states exactly at the chemical
    potential.
    """
    values = np.asarray(values, dtype=float)
    result = np.sign(values)
    if zero_tolerance > 0.0:
        result[np.abs(values) <= zero_tolerance] = 0.0
    return result


def symmetric_eigendecomposition(
    matrix: Union[np.ndarray, sp.spmatrix],
    symmetry_tolerance: float = 1e-8,
) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix (dsyevd equivalent).

    Returns (eigenvalues, eigenvectors).  Raises if the matrix is not
    symmetric within ``symmetry_tolerance`` — the paper guarantees symmetry
    of the sign-function argument by using Löwdin orthogonalization
    (Sec. IV-F) precisely so that this decomposition is applicable.
    """
    dense = as_dense(matrix)
    if dense.shape[0] != dense.shape[1]:
        raise ValueError("eigendecomposition requires a square matrix")
    asymmetry = float(np.max(np.abs(dense - dense.T))) if dense.size else 0.0
    if asymmetry > symmetry_tolerance:
        raise ValueError(
            f"matrix is not symmetric (max asymmetry {asymmetry:.3e} exceeds "
            f"{symmetry_tolerance:.0e})"
        )
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (dense + dense.T))
    return eigenvalues, eigenvectors


def sign_via_eigendecomposition(
    matrix: Union[np.ndarray, sp.spmatrix],
    mu: float = 0.0,
    zero_tolerance: float = 0.0,
) -> np.ndarray:
    """sign(A − μI) via symmetric eigendecomposition (Eq. 17).

    Parameters
    ----------
    matrix:
        Symmetric matrix A.
    mu:
        Shift (chemical potential); the sign of A − μI is returned.
    zero_tolerance:
        Eigenvalues within this distance of μ are treated as exactly at the
        chemical potential and mapped to 0 (Eq. 12).
    """
    eigenvalues, eigenvectors = symmetric_eigendecomposition(matrix)
    signs = extended_signum(eigenvalues - mu, zero_tolerance)
    return (eigenvectors * signs) @ eigenvectors.T


def symmetric_eigendecomposition_batched(
    stack: np.ndarray,
    symmetry_tolerance: float = 1e-8,
) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a ``(k, n, n)`` stack of symmetric matrices.

    One C-level loop over the stack (``numpy.linalg.eigh`` broadcasts over
    leading axes) instead of ``k`` Python calls; used by the bucketed batch
    evaluator of the submatrix engine.  Returns ``(eigenvalues, eigenvectors)``
    of shapes ``(k, n)`` and ``(k, n, n)``.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[-1] != stack.shape[-2]:
        raise ValueError("expected a (k, n, n) stack of square matrices")
    transposed = np.swapaxes(stack, -1, -2)
    asymmetry = float(np.max(np.abs(stack - transposed))) if stack.size else 0.0
    if asymmetry > symmetry_tolerance:
        raise ValueError(
            f"stack is not symmetric (max asymmetry {asymmetry:.3e} exceeds "
            f"{symmetry_tolerance:.0e})"
        )
    return np.linalg.eigh(0.5 * (stack + transposed))


def sign_via_eigendecomposition_batched(
    stack: np.ndarray,
    mu: float = 0.0,
    zero_tolerance: float = 0.0,
) -> np.ndarray:
    """sign(A − μI) for every matrix of a ``(k, n, n)`` stack (Eq. 17).

    Batched counterpart of :func:`sign_via_eigendecomposition`; one call
    evaluates the whole stack.
    """
    eigenvalues, eigenvectors = symmetric_eigendecomposition_batched(stack)
    signs = extended_signum(eigenvalues - mu, zero_tolerance)
    return (eigenvectors * signs[:, None, :]) @ np.swapaxes(eigenvectors, -1, -2)
