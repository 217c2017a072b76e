"""Principal-submatrix extraction at block level.

This is the heart of the submatrix method (Sec. III-A of the paper):

1. For a set of generating columns C of the sparse symmetric matrix A, the
   retained index set R is the union of the rows with a non-zero entry in any
   column of C.  The principal submatrix a_C = A[R, R] is dense (or nearly
   dense) and much smaller than A in the linear-scaling regime.
2. After evaluating the matrix function f on a_C, only the columns of f(a_C)
   that correspond to the generating columns are copied back into the result
   matrix, and only at the rows that were non-zero in the corresponding input
   column — the result inherits the sparsity pattern of the input.

The helpers here work on DBCSR block columns (a :class:`BlockSparseMatrix`
or a pure block-sparsity pattern for the large pattern-only analyses):
the retained block rows and dimension of a submatrix, and one dense
submatrix for the benches that study a single submatrix, extracted by a
one-group :class:`~repro.core.plan.BlockSubmatrixPlan` — the gather the
engine runs on every stack.  The serial reference the engine is tested
against (element and block extraction plus scatter-back, one Python step
per block) lives in ``tests/submatrix_reference.py``.
"""
from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.core.plan import BlockSubmatrixPlan
from repro.dbcsr.block_matrix import BlockSparseMatrix
from repro.dbcsr.coo import CooBlockList

__all__ = [
    "Submatrix",
    "extract_block_submatrix",
    "submatrix_block_rows",
    "submatrix_dimension",
]


@dataclasses.dataclass
class Submatrix:
    """A principal submatrix together with its index bookkeeping.

    Attributes
    ----------
    generating_columns:
        The (element or block) columns this submatrix was generated for.
    indices:
        The retained (element or block) rows/columns, sorted ascending, in the
        indexing of the original matrix.
    local_columns:
        Positions of the generating columns inside ``indices``.
    data:
        The dense submatrix (``None`` for pattern-level extraction).
    block_sizes:
        For block-level submatrices, the sizes of the retained blocks (in the
        same order as ``indices``); ``None`` at element level.
    """

    generating_columns: np.ndarray
    indices: np.ndarray
    local_columns: np.ndarray
    data: Optional[np.ndarray] = None
    block_sizes: Optional[np.ndarray] = None

    @property
    def dimension(self) -> int:
        """Dense dimension of the submatrix."""
        if self.block_sizes is not None:
            return int(self.block_sizes.sum())
        return int(self.indices.size)


def submatrix_block_rows(
    pattern_or_coo: Union[sp.spmatrix, CooBlockList],
    block_columns: Union[int, Sequence[int]],
) -> np.ndarray:
    """Non-zero block rows of the given block columns (sorted union).

    Accepts either a block-sparsity pattern matrix or a
    :class:`~repro.dbcsr.coo.CooBlockList`.
    """
    block_columns = np.atleast_1d(np.asarray(block_columns, dtype=int))
    if isinstance(pattern_or_coo, CooBlockList):
        rows = pattern_or_coo.blocks_in_columns(block_columns)
        rows = np.asarray(rows, dtype=int)
    else:
        csc = pattern_or_coo.tocsc()
        row_sets = [
            csc.indices[csc.indptr[c] : csc.indptr[c + 1]] for c in block_columns
        ]
        rows = np.unique(np.concatenate(row_sets)) if row_sets else np.empty(0, int)
    return np.unique(np.concatenate([rows, block_columns]))


def submatrix_dimension(
    pattern_or_coo: Union[sp.spmatrix, CooBlockList],
    block_sizes: Sequence[int],
    block_columns: Union[int, Sequence[int]],
) -> int:
    """Dense dimension of the submatrix generated by ``block_columns``.

    This is the quantity plotted in Fig. 4 of the paper (dim(SM)): the sum of
    the block sizes of all retained block rows.
    """
    block_sizes = np.asarray(list(block_sizes), dtype=int)
    rows = submatrix_block_rows(pattern_or_coo, block_columns)
    return int(block_sizes[rows].sum())


def extract_block_submatrix(
    matrix: BlockSparseMatrix,
    block_columns: Union[int, Sequence[int]],
    coo: Optional[CooBlockList] = None,
) -> Submatrix:
    """Assemble the dense submatrix for one or several DBCSR block columns.

    Parameters
    ----------
    matrix:
        The block-sparse input matrix (must have a square block structure).
    block_columns:
        Generating block column(s).
    coo:
        Optional pre-built COO block list (the global sparsity view); built
        on the fly when omitted.  Its blocks that ``matrix`` does not store
        extract as zeros; a stored block outside it is a :class:`ValueError`
        (:meth:`~repro.core.plan.BlockSubmatrixPlan.pack`).

    Returns
    -------
    Submatrix
        With ``data`` the dense submatrix, ``indices`` the retained block
        rows, ``block_sizes`` their sizes and ``local_columns`` the positions
        of the generating block columns within the retained blocks.
    """
    if not np.array_equal(matrix.row_block_sizes, matrix.col_block_sizes):
        raise ValueError("the submatrix method requires a square block structure")
    block_columns = np.atleast_1d(np.asarray(block_columns, dtype=int))
    if coo is None:
        coo = CooBlockList.from_block_matrix(matrix)
    plan = BlockSubmatrixPlan(coo, matrix.row_block_sizes, [block_columns])
    group = plan.groups[0]
    return Submatrix(
        generating_columns=block_columns,
        indices=group.indices,
        local_columns=group.local_columns,
        data=plan.extract_stack(plan.pack(matrix), [0])[0],
        block_sizes=group.block_sizes,
    )
