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

from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.signfn.utils import SYMMETRY_TOLERANCE, as_dense

__all__ = [
    "extended_signum",
    "sign_via_eigendecomposition",
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


def sign_via_eigendecomposition(
    matrix: Union[np.ndarray, sp.spmatrix],
    mu: float = 0.0,
    zero_tolerance: float = 0.0,
) -> np.ndarray:
    """sign(A − μI) of one symmetric matrix A (Eq. 17): the stack of one
    through :func:`sign_via_eigendecomposition_batched`, bitwise.

    Eigenvalues within ``zero_tolerance`` of μ are treated as exactly at the
    chemical potential and mapped to 0 (Eq. 12).
    """
    stack = as_dense(matrix)[None]
    return sign_via_eigendecomposition_batched(stack, mu, zero_tolerance)[0]


def sign_via_eigendecomposition_batched(
    stack: np.ndarray,
    mu: float = 0.0,
    zero_tolerance: float = 0.0,
) -> np.ndarray:
    """sign(A − μI) for every matrix of a ``(k, n, n)`` stack (Eq. 17).

    One ``numpy.linalg.eigh`` call decomposes the whole stack (a dsyevd per
    matrix in one C-level loop).  Raises :class:`ValueError` for a stack
    asymmetric beyond 1e-8 — the paper guarantees symmetry of the
    sign-function argument by using Löwdin orthogonalization (Sec. IV-F)
    precisely so that this decomposition is applicable.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[-1] != stack.shape[-2]:
        raise ValueError("expected a (k, n, n) stack of square matrices")
    transposed = np.swapaxes(stack, -1, -2)
    asymmetry = float(np.max(np.abs(stack - transposed))) if stack.size else 0.0
    if asymmetry > SYMMETRY_TOLERANCE:
        raise ValueError(
            f"stack is not symmetric (max asymmetry {asymmetry:.3e} exceeds "
            f"{SYMMETRY_TOLERANCE:.0e})"
        )
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (stack + transposed))
    signs = extended_signum(eigenvalues - mu, zero_tolerance)
    return (eigenvectors * signs[:, None, :]) @ np.swapaxes(eigenvectors, -1, -2)
