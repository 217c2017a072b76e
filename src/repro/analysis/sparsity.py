"""Sparsity statistics of matrices and submatrices.

Fig. 11 of the paper compares three occupations for increasing system sizes:
the block-wise occupation of the orthogonalized Kohn–Sham matrix, the
block-wise occupation of the submatrices, and the element-wise occupation of
the submatrices.  The functions here compute those statistics from
block-sparsity patterns.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "block_occupation",
    "submatrix_block_occupation",
    "submatrix_element_occupation",
]


def block_occupation(pattern: sp.spmatrix) -> float:
    """Fraction of non-zero blocks in a block-sparsity pattern."""
    total = pattern.shape[0] * pattern.shape[1]
    if total == 0:
        return 0.0
    return pattern.nnz / total


def submatrix_block_occupation(
    pattern: sp.spmatrix, block_rows: Sequence[int]
) -> float:
    """Block-wise occupation of the principal submatrix over ``block_rows``.

    ``pattern`` is the block-sparsity pattern of the full matrix and
    ``block_rows`` the block indices retained in the submatrix (the non-zero
    block rows of the generating column(s)).
    """
    block_rows = np.asarray(list(block_rows), dtype=int)
    if block_rows.size == 0:
        return 0.0
    sub = pattern.tocsr()[block_rows][:, block_rows]
    return block_occupation(sub)


def submatrix_element_occupation(
    pattern: sp.spmatrix,
    block_rows: Sequence[int],
    block_sizes: Sequence[int],
) -> float:
    """Element-wise occupation of the principal submatrix over ``block_rows``.

    Elements inside non-zero blocks are counted as occupied (DBCSR stores
    whole blocks densely), so this measures the fraction of the dense
    submatrix covered by non-zero blocks — the quantity that motivates the
    paper's remark that element-wise sparse algebra could be profitable for
    larger basis sets (Sec. V-C).
    """
    block_rows = np.asarray(list(block_rows), dtype=int)
    block_sizes = np.asarray(list(block_sizes), dtype=int)
    if block_rows.size == 0:
        return 0.0
    sizes = block_sizes[block_rows]
    dimension = int(sizes.sum())
    if dimension == 0:
        return 0.0
    sub = pattern.tocsr()[block_rows][:, block_rows].tocoo()
    occupied_elements = int(np.sum(sizes[sub.row] * sizes[sub.col]))
    return occupied_elements / (dimension * dimension)
