"""The method's work counts, stated once; every modeled number reads them.

* a submatrix solve costs c·d³ (Eq. 14), c = :data:`EIGENSOLVE_FLOP_CONSTANT`:
  the load balance (Sec. IV-E), the speedup of Eq. 15 (where c cancels),
  ``flop_estimate`` and the per-rank work of Figs. 6 and 8–10;
* a dense (m, k)·(k, n) GEMM costs 2·m·k·n: the Padé loop and Table I's
  device model;
* one matrix of the batched Newton–Schulz kernel costs 3·d³ per full step
  (``syrk`` X·Xᵀ, then S·X) and d³ + 2·d²·w for the last, on w columns;
* a block-sparse multiply costs 2·Σ_k b_k·(Σ_i P[i,k]·b_i)·(Σ_j P[k,j]·b_j):
  the Newton–Schulz baseline's model (Figs. 6 and 10);
* the imbalance of per-rank loads is max/mean, 1 when nothing is loaded.

It imports nothing from the package, so every layer may read it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "EIGENSOLVE_FLOP_CONSTANT",
    "submatrix_flop_costs",
    "gemm_flops",
    "newton_schulz_flops",
    "block_multiply_flops",
    "imbalance",
]

#: FLOPs of a dense symmetric eigendecomposition plus the two back
#: transformations Q·diag·Qᵀ, expressed as a multiple of n³.  dsyevd costs
#: roughly 4/3·n³ for the tridiagonal reduction plus ~4·n³ for the
#: divide-and-conquer back-transformation; forming Q Λ' Qᵀ adds ~4·n³.
#: That last term is the accounting of the paper's cost model and of the
#: ledger's staged replay, which both form the full product; the engine
#: itself forms only the generating-column panel (2·n²·w,
#: :func:`repro.core.batch.spectral_panels`).
EIGENSOLVE_FLOP_CONSTANT = 9.0


def submatrix_flop_costs(dimensions: Sequence[int]) -> np.ndarray:
    """Estimated cost c·d³ of every submatrix solve (Eq. 14)."""
    dimensions = np.asarray(list(dimensions), dtype=float)
    if np.any(dimensions < 0):
        raise ValueError("submatrix dimensions must be non-negative")
    return EIGENSOLVE_FLOP_CONSTANT * dimensions**3


def gemm_flops(m: float, k: float, n: float) -> float:
    """FLOPs of one dense (m, k) · (k, n) product."""
    return 2.0 * m * k * n


def newton_schulz_flops(dimension: int, iterations: int, width: int) -> float:
    """FLOPs of one d×d matrix through the batched Newton–Schulz kernel:
    ``iterations`` steps, the last on ``width`` columns (a matrix frozen
    after a full step takes its last panel with S = I, not counted here)."""
    d = float(dimension)
    return (iterations - 1) * 3.0 * d**3 + d**3 + gemm_flops(d, d, width)


def block_multiply_flops(pattern: sp.spmatrix, block_sizes: Sequence[int]) -> float:
    """FLOPs of one block-sparse product X·Y, both of block pattern ``pattern``.

    2·Σ_k b_k·(Σ_i P[i,k]·b_i)·(Σ_j P[k,j]·b_j): block row i of X meets
    block column j of Y through every shared inner block k.
    """
    sizes = np.asarray(list(block_sizes), dtype=float)
    weights = pattern.astype(bool).astype(float)
    col_weight = np.asarray(weights.T @ sizes).ravel()
    row_weight = np.asarray(weights @ sizes).ravel()
    return 2.0 * float(np.sum(sizes * col_weight * row_weight))


def imbalance(loads: Sequence[float]) -> float:
    """Ratio of the largest to the mean load (1.0 = balanced or all idle)."""
    loads = np.asarray(list(loads), dtype=float)
    total = float(loads.sum())
    if total == 0:
        return 1.0
    return float(loads.max() / (total / loads.size))
