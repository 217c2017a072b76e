"""Löwdin symmetric orthogonalization.

The paper's implementation (Sec. IV-F) symmetrises the argument of the sign
function by multiplying the Kohn–Sham matrix from both sides with S^{-1/2}
(Löwdin orthogonalization) instead of using the unsymmetric product S^{-1}K:

    K̃ = S^{-1/2} K S^{-1/2}
    D = 1/2 S^{-1/2} (I - sign(K̃ - μ I)) S^{-1/2}            (Eq. 16)

This module provides the dense reference S^{-1/2} (via symmetric
eigendecomposition) as well as a sparse, filtered orthogonalized Kohn–Sham
matrix for use by the sparse solvers.

Both Löwdin products of a request — K̃ here and the back-transform
S^{-1/2}·D̃·S^{-1/2} of the density (:mod:`repro.api.observables`) — are one
:func:`~repro.dbcsr.product.triple_product`: two products in row panels,
the inner one over the column runs the sparse operand stores, the outer one
over those of S^{-1/2} above its rounding floor n·2⁻⁵³·max|S^{-1/2}|, where
a dense ``eigh`` root holds no digits.  Either falls back to the dense GEMM,
bitwise, when its panels would not pay (see :mod:`repro.dbcsr.product`), so
a water overlap, whose root is dense above the floor, gives the old bits.
For a sparse K and a root with floor runs, the engine's K̃
(:func:`orthogonalized_ks_blocks`) skips every block that B = N_X·N_K·N_X,
N_A[I, J] = ‖A_IJ‖_F, times the rounding margin 1 + 2n·2⁻⁵³, bounds below ε
(:func:`~repro.dbcsr.product.screened_product`).  On a session with a pool,
a request's K̃ runs ``K·X``, the screen's left product and the dense route's
products, symmetrisation and filter in row bands, bitwise the inline route
(:mod:`repro.dbcsr.product`); :func:`orthogonalized_ks` stays serial.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.dbcsr.convert import block_matrix_from_dense
from repro.dbcsr.product import DENSE_FILL, PANEL_ROWS, floor_runs, stored_fill
from repro.dbcsr.product import PanelRuns, block_norms, screened_product
from repro.dbcsr.product import symmetrize_filter, triple_product

__all__ = [
    "loewdin_inverse_sqrt",
    "orthogonalized_ks",
    "orthogonalized_ks_blocks",
]


#: The one symmetry rule of the request matrices: ``K`` and ``S`` count as
#: symmetric when ``max|A − Aᵀ| ≤ SYMMETRY_ATOL + SYMMETRY_RTOL · max|A|``.
#: Rounding noise of assembled matrices sits orders of magnitude below it;
#: an asymmetry above it would be averaged away by the symmetrisation of K̃
#: and silently change the density, so it is an error instead.
SYMMETRY_ATOL = 1e-10
SYMMETRY_RTOL = 1e-8

#: Smallest eigenvalue of S that :func:`loewdin_inverse_sqrt` accepts: the
#: overlap of a physically meaningful, non-redundant basis is strictly
#: positive definite.
MIN_OVERLAP_EIGENVALUE = 1e-10


def _extent(values) -> float:
    """max|values| of an array or a SciPy matrix (NaN when any is NaN)."""
    return max(values.max(), -values.min())


def _require_symmetric(name: str, matrix, dense: np.ndarray) -> None:
    """Raise :class:`ValueError` naming the matrix unless it is finite and
    symmetric by the rule above; NaN and Inf surface in the extrema.  A SciPy
    ``matrix`` below :data:`~repro.dbcsr.product.DENSE_FILL` is read on its
    stored entries as CSR, anything else on ``dense`` in row panels with no
    n×n ``A − Aᵀ``: both give the whole matrix's verdict and message."""
    if dense.shape[0] != dense.shape[1]:
        raise ValueError(f"{name} must be square, got shape {dense.shape}")
    stored = sp.issparse(matrix) and stored_fill(matrix) < DENSE_FILL
    checked = matrix.tocsr() if stored else dense  # LIL, DOK, DIA: no max/min
    scale = _extent(checked)
    if not np.isfinite(scale):
        raise ValueError(f"{name} contains non-finite values (NaN or Inf)")
    if stored:
        asymmetry = _extent(checked - checked.T)
    else:
        asymmetry = max(
            _extent(dense[i : i + PANEL_ROWS, i:] - dense[i:, i : i + PANEL_ROWS].T)
            for i in range(0, dense.shape[0], PANEL_ROWS)
        )
    if asymmetry > SYMMETRY_ATOL + SYMMETRY_RTOL * scale:
        raise ValueError(
            f"{name} must be symmetric: max|{name} - {name}^T| = {asymmetry:.3e} "
            f"exceeds {SYMMETRY_ATOL:.0e} + {SYMMETRY_RTOL:.0e} * max|{name}| "
            f"(max|{name}| = {scale:.3e})"
        )


def loewdin_inverse_sqrt(S: Union[np.ndarray, sp.spmatrix]) -> np.ndarray:
    """Compute S^{-1/2} of a symmetric positive-definite overlap matrix.

    Parameters
    ----------
    S:
        Overlap matrix, dense or sparse.  It is densified and diagonalised
        (O(n³)), so a caller that sees the same overlap again should keep the
        result and hand it to :func:`orthogonalized_ks` through
        ``s_inv_sqrt=`` — a session does, once per overlap content.

    Returns
    -------
    numpy.ndarray
        Dense S^{-1/2}.

    Raises :class:`ValueError` naming ``S`` when it is not square, holds a
    NaN/Inf, or is not symmetric by :data:`SYMMETRY_ATOL` /
    :data:`SYMMETRY_RTOL`, and a :class:`ValueError` when an eigenvalue of S
    lies below :data:`MIN_OVERLAP_EIGENVALUE`.
    """
    S_dense = S.toarray() if sp.issparse(S) else np.asarray(S, dtype=float)
    _require_symmetric("S", S, S_dense)
    eigenvalues, eigenvectors = np.linalg.eigh(S_dense)
    if eigenvalues.min() < MIN_OVERLAP_EIGENVALUE:
        raise ValueError(
            f"overlap matrix is not positive definite enough "
            f"(min eigenvalue {eigenvalues.min():.3e} < {MIN_OVERLAP_EIGENVALUE:.0e})"
        )
    # W·Wᵀ with W = V diag(λ^{-1/4}): NumPy hands a product with its own
    # transpose to syrk, half the GEMM's work and exactly symmetric
    half = eigenvectors * (1.0 / np.sqrt(np.sqrt(eigenvalues)))
    return half @ half.T


def orthogonalized_ks_blocks(
    K, S, block_sizes, eps_filter=0.0, s_inv_sqrt=None, outer_runs=None, outer_norms=None,
    mapper=None,
):
    """:func:`orthogonalized_ks` with K̃ cut into ``block_sizes`` blocks, or
    left dense (a fresh, writable array) for ``None``.

    The arguments, the checks and the values are those of
    :func:`orthogonalized_ks`.  ``outer_runs`` is
    :func:`~repro.dbcsr.product.floor_runs` of ``s_inv_sqrt`` if the caller
    keeps it; both come back with K̃.

    A SciPy ``K`` below :data:`~repro.dbcsr.product.DENSE_FILL`, filtered at
    an ``eps_filter`` above zero through a root with floor runs, forms only
    the blocks the filter can keep
    (:func:`~repro.dbcsr.product.screened_product`; ``outer_norms``: the
    root's :func:`~repro.dbcsr.product.block_norms`, if kept).  Anything
    else, or a screen that would not pay, is
    :func:`~repro.dbcsr.convert.block_matrix_from_dense` of the dense K̃;
    either in row bands on ``mapper``, if given.
    """
    if not (math.isfinite(eps_filter) and eps_filter >= 0.0):
        raise ValueError(
            f"eps_filter must be finite and non-negative, got {eps_filter!r}"
        )
    if s_inv_sqrt is None:
        s_inv_sqrt = loewdin_inverse_sqrt(S)
    if outer_runs is None:
        outer_runs = floor_runs(s_inv_sqrt)
    K_dense = K.toarray() if sp.issparse(K) else np.asarray(K, dtype=float)
    _require_symmetric("K", K, K_dense)
    sparse = sp.issparse(K) and stored_fill(K) < DENSE_FILL
    if block_sizes is not None and eps_filter > 0.0 and outer_runs and sparse:
        if outer_norms is None:
            outer_norms = block_norms(s_inv_sqrt, block_sizes)
        blocks = screened_product(
            s_inv_sqrt, K, K_dense, outer_runs, outer_norms, block_sizes, eps_filter,
            mapper,
        )
        if blocks is not None:
            return blocks, s_inv_sqrt, outer_runs
    K_ortho = triple_product(
        s_inv_sqrt, K if sp.issparse(K) else K_dense, K_dense, outer_runs, mapper
    )
    # (K̃ + K̃ᵀ)·0.5, then |K̃_ij| < eps → 0
    K_ortho = symmetrize_filter(K_ortho, eps_filter, mapper)
    if block_sizes is not None:
        K_ortho = block_matrix_from_dense(K_ortho, block_sizes)
    return K_ortho, s_inv_sqrt, outer_runs


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

    The triple product is :func:`~repro.dbcsr.product.triple_product`:
    S^{-1/2}·(K·S^{-1/2}) with K·S^{-1/2} in row panels when ``K`` is a
    sparse matrix that stores few enough elements, else the dense
    (S^{-1/2}·K)·S^{-1/2}; the left product over S^{-1/2}'s floor runs.

    Raises :class:`ValueError` for an ``eps_filter`` that is NaN, infinite
    or negative (as :class:`~repro.api.config.EngineConfig` does), naming
    ``K`` when it holds a NaN/Inf or is not symmetric by
    :data:`SYMMETRY_ATOL` / :data:`SYMMETRY_RTOL` (K̃ is symmetrised below,
    which would average a real asymmetry away), and whatever
    :func:`loewdin_inverse_sqrt` raises for ``S``.
    """
    K_ortho, s_inv_sqrt, _ = orthogonalized_ks_blocks(K, S, None, eps_filter, s_inv_sqrt)
    return sp.csr_matrix(K_ortho), s_inv_sqrt
