"""Inverse p-th roots of symmetric positive-definite matrices.

The submatrix method was originally proposed for the approximate computation
of inverse p-th roots A^{-1/p} of large sparse matrices (reference [8] of the
paper).  The sign function is related through sign(A) = A (A²)^{-1/2}
(Eq. 8).  Implementing the inverse roots serves two purposes in this
reproduction: it demonstrates that the submatrix machinery is generic in the
evaluated matrix function, and it provides an independent correctness check
for the submatrix method against a second, well-conditioned matrix function.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.signfn.utils import as_dense

__all__ = ["inverse_pth_root"]


def inverse_pth_root(
    matrix: Union[np.ndarray, sp.spmatrix],
    p: int = 2,
    min_eigenvalue: float = 1e-12,
) -> np.ndarray:
    """A^{-1/p} of a symmetric positive-definite matrix via eigendecomposition.

    Parameters
    ----------
    matrix:
        Symmetric positive-definite matrix.
    p:
        Root order (p = 2 gives the inverse square root used in Löwdin
        orthogonalization and in the definition of the sign function).
    min_eigenvalue:
        Eigenvalues below this threshold raise an error.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    dense = as_dense(matrix)
    dense = 0.5 * (dense + dense.T)
    eigenvalues, eigenvectors = np.linalg.eigh(dense)
    if eigenvalues.min() < min_eigenvalue:
        raise ValueError(
            f"matrix is not positive definite (min eigenvalue "
            f"{eigenvalues.min():.3e})"
        )
    powered = eigenvalues ** (-1.0 / p)
    return (eigenvectors * powered) @ eigenvectors.T

