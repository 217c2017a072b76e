"""Löwdin symmetric orthogonalization.

The paper's implementation (Sec. IV-F) symmetrises the argument of the sign
function by multiplying the Kohn–Sham matrix from both sides with S^{-1/2}
(Löwdin orthogonalization) instead of using the unsymmetric product S^{-1}K:

    K̃ = S^{-1/2} K S^{-1/2}
    D = 1/2 S^{-1/2} (I - sign(K̃ - μ I)) S^{-1/2}            (Eq. 16)

This module provides the dense reference S^{-1/2} (via symmetric
eigendecomposition) as well as a sparse, filtered orthogonalized Kohn–Sham
matrix for use by the sparse solvers.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

__all__ = [
    "loewdin_inverse_sqrt",
    "orthogonalized_ks",
]


#: The one symmetry rule of the request matrices: ``K`` and ``S`` count as
#: symmetric when ``max|A − Aᵀ| ≤ SYMMETRY_ATOL + SYMMETRY_RTOL · max|A|``.
#: Rounding noise of assembled matrices sits orders of magnitude below it;
#: an asymmetry above it would be averaged away by the symmetrisation of K̃
#: and silently change the density, so it is an error instead.
SYMMETRY_ATOL = 1e-10
SYMMETRY_RTOL = 1e-8


def _require_symmetric(name: str, dense: np.ndarray) -> None:
    """Raise :class:`ValueError` naming the matrix unless ``dense`` is finite
    and symmetric by the rule above (no boolean temporaries: NaN and Inf
    surface in the extrema)."""
    if dense.shape[0] != dense.shape[1]:
        raise ValueError(f"{name} must be square, got shape {dense.shape}")
    scale = max(dense.max(), -dense.min())
    if not np.isfinite(scale):
        raise ValueError(f"{name} contains non-finite values (NaN or Inf)")
    difference = dense - dense.T
    asymmetry = max(difference.max(), -difference.min())
    if asymmetry > SYMMETRY_ATOL + SYMMETRY_RTOL * scale:
        raise ValueError(
            f"{name} must be symmetric: max|{name} - {name}^T| = {asymmetry:.3e} "
            f"exceeds {SYMMETRY_ATOL:.0e} + {SYMMETRY_RTOL:.0e} * max|{name}| "
            f"(max|{name}| = {scale:.3e})"
        )


def loewdin_inverse_sqrt(
    S: Union[np.ndarray, sp.spmatrix], min_eigenvalue: float = 1e-10
) -> np.ndarray:
    """Compute S^{-1/2} of a symmetric positive-definite overlap matrix.

    Parameters
    ----------
    S:
        Overlap matrix, dense or sparse.  It is densified and diagonalised
        (O(n³)), so a caller that sees the same overlap again should keep the
        result and hand it to :func:`orthogonalized_ks` through
        ``s_inv_sqrt=`` — a session does, once per overlap content.
    min_eigenvalue:
        Eigenvalues below this threshold trigger an error; the overlap of a
        physically meaningful, non-redundant basis is strictly positive
        definite.

    Returns
    -------
    numpy.ndarray
        Dense S^{-1/2}.

    Raises :class:`ValueError` naming ``S`` when it is not square, holds a
    NaN/Inf, or is not symmetric by :data:`SYMMETRY_ATOL` /
    :data:`SYMMETRY_RTOL`.
    """
    S_dense = S.toarray() if sp.issparse(S) else np.asarray(S, dtype=float)
    _require_symmetric("S", S_dense)
    eigenvalues, eigenvectors = np.linalg.eigh(S_dense)
    if eigenvalues.min() < min_eigenvalue:
        raise ValueError(
            f"overlap matrix is not positive definite enough "
            f"(min eigenvalue {eigenvalues.min():.3e} < {min_eigenvalue:.0e})"
        )
    # V diag(λ^{-1/2}) Vᵀ as one GEMM; scaling the columns is bitwise what
    # the product with the diagonal matrix gave
    inv_sqrt = (eigenvectors * (1.0 / np.sqrt(eigenvalues))) @ eigenvectors.T
    return 0.5 * (inv_sqrt + inv_sqrt.T)


def orthogonalized_ks(
    K: Union[np.ndarray, sp.spmatrix],
    S: Union[np.ndarray, sp.spmatrix],
    eps_filter: float = 0.0,
    s_inv_sqrt: Optional[np.ndarray] = None,
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Symmetrically orthogonalized Kohn–Sham matrix K̃ = S^{-1/2} K S^{-1/2}.

    Parameters
    ----------
    K, S:
        Kohn–Sham and overlap matrices (dense or sparse).
    eps_filter:
        CP2K-style element truncation threshold applied to K̃.  Elements with
        absolute value below this threshold are dropped, which is what
        establishes the sparsity exploited by both the Newton–Schulz baseline
        and the submatrix method.  ``0.0`` keeps everything.
    s_inv_sqrt:
        ``loewdin_inverse_sqrt(S)`` when the caller already holds it (``S`` is
        then not read); by default it is computed here.

    Returns
    -------
    (K_ortho, S_inv_sqrt):
        The filtered orthogonalized Kohn–Sham matrix as CSR and the dense
        S^{-1/2} used to build it (needed again to back-transform the density
        matrix, Eq. 16).

    Raises :class:`ValueError` naming ``K`` when it holds a NaN/Inf or is not
    symmetric by :data:`SYMMETRY_ATOL` / :data:`SYMMETRY_RTOL` (K̃ is
    symmetrised below, which would average a real asymmetry away), and
    whatever :func:`loewdin_inverse_sqrt` raises for ``S``.
    """
    if s_inv_sqrt is None:
        s_inv_sqrt = loewdin_inverse_sqrt(S)
    K_dense = K.toarray() if sp.issparse(K) else np.asarray(K, dtype=float)
    _require_symmetric("K", K_dense)
    K_ortho = s_inv_sqrt @ K_dense @ s_inv_sqrt
    K_ortho = 0.5 * (K_ortho + K_ortho.T)
    if eps_filter > 0.0:
        K_ortho = np.where(np.abs(K_ortho) >= eps_filter, K_ortho, 0.0)
    return sp.csr_matrix(K_ortho), s_inv_sqrt
