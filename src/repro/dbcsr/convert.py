"""Conversions between block-sparse, SciPy sparse and dense representations.

The chemistry substrate produces ``scipy.sparse`` matrices with a known block
(molecule) structure; the DBCSR substrate and the submatrix method operate on
:class:`~repro.dbcsr.block_matrix.BlockSparseMatrix`.  These helpers move
data between the representations while preserving the block structure and
dropping blocks that are entirely below a threshold.  Each one reads or
writes the matrix's value buffer and block index
(:meth:`~repro.dbcsr.block_matrix.BlockSparseMatrix.block_index`) in a few
vectorised passes; none visits the blocks one at a time.

In a density request K̃ = S^{-1/2}·K·S^{-1/2} reaches blocks with no CSR
step: formed only in the blocks its filter can keep when K is sparse and
S^{-1/2} has floor runs (:func:`~repro.dbcsr.product.screened_product`),
else cut from its dense form (:func:`block_matrix_from_dense`, equal to
:func:`block_matrix_from_csr` of its CSR form); both give the same blocks.
The triple products are :mod:`repro.dbcsr.product`'s.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
import scipy.sparse as sp

from repro.dbcsr.block_matrix import BlockSparseMatrix
from repro.dbcsr.coo import block_run, concat_ranges

__all__ = [
    "block_matrix_from_dense",
    "block_matrix_from_csr",
    "block_matrix_to_dense",
    "block_matrix_to_csr",
]


def _run(matrix: BlockSparseMatrix) -> int:
    """The run of every block height and width: each block row is whole runs
    of it, in the buffer and in the dense matrix alike."""
    return block_run(np.concatenate((matrix.row_block_sizes, matrix.col_block_sizes)))


def _any_per_block(mask: np.ndarray, starts, sizes) -> np.ndarray:
    """``any`` over each block of rows of ``mask`` (``sizes[i]`` rows from
    ``starts[i]``): one reduction of a reshaped view when the blocks are all
    one size, else one per block."""
    if (sizes == sizes[0]).all():
        return np.ascontiguousarray(mask).reshape(sizes.size, sizes[0], -1).any(axis=1)
    out = np.empty((sizes.size, mask.shape[1]), dtype=bool)
    for index, (start, size) in enumerate(zip(starts.tolist(), sizes.tolist())):
        np.any(mask[start : start + size], axis=0, out=out[index])
    return out


def _dense_runs(matrix: BlockSparseMatrix, rows, cols, run: int) -> np.ndarray:
    """Dense run position (row-major, ``run`` values each) of every buffer
    run of the blocks ``(rows[i], cols[i])`` stored in this order: block by
    block, row by row."""
    heights = matrix.row_block_sizes[rows]
    line_rows = np.repeat(matrix.row_starts[rows], heights) + concat_ranges(0, heights)
    line_cols = np.repeat(matrix.col_starts[cols], heights)
    widths = np.repeat(matrix.col_block_sizes[cols], heights)
    return concat_ranges(
        (line_rows * matrix.shape[1] + line_cols) // run, widths // run
    )


def block_matrix_from_dense(
    matrix: np.ndarray,
    row_block_sizes: Iterable[int],
    col_block_sizes: Optional[Iterable[int]] = None,
    threshold: float = 0.0,
) -> BlockSparseMatrix:
    """Cut a dense matrix into blocks, keeping blocks above ``threshold``.

    The blocks kept, and their values, are those of
    ``block_matrix_from_csr(sp.csr_matrix(matrix), …, threshold)``: a block
    is kept when one of its elements is non-zero (``threshold <= 0``, a NaN
    included) or has an absolute value strictly above ``threshold`` (a NaN
    is not above any threshold), and a kept block stores every element of
    its region, a negative zero as ``+0.0``.

    Vectorised: one elementwise test, one reduction per axis (per block row
    and column when the blocks are ragged), and one gather of whole runs into
    the result's value buffer (row-major block order, as the CSR route's).
    """
    matrix = np.asarray(matrix, dtype=float)
    result = BlockSparseMatrix(row_block_sizes, col_block_sizes)
    rows, cols = result.shape
    if matrix.shape != (rows, cols):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match block structure "
            f"({rows}, {cols})"
        )
    if not matrix.size:
        return result
    counted = np.abs(matrix) > threshold if threshold > 0.0 else matrix != 0.0
    in_block_rows = _any_per_block(counted, result.row_starts, result.row_block_sizes)
    occupied = _any_per_block(
        in_block_rows.T, result.col_starts, result.col_block_sizes
    ).T
    block_row, block_col = np.nonzero(occupied)  # row-major block order
    run = _run(result)
    values = matrix.reshape(-1, run).take(
        _dense_runs(result, block_row, block_col, run), axis=0
    ).reshape(-1)
    values += 0.0  # -0.0 → +0.0, as the CSR route (which drops zeros) gives
    return BlockSparseMatrix.from_index(
        result.row_block_sizes, result.col_block_sizes, block_row, block_col, values
    )


def block_matrix_from_csr(
    matrix: sp.spmatrix,
    row_block_sizes: Iterable[int],
    col_block_sizes: Optional[Iterable[int]] = None,
    threshold: float = 0.0,
) -> BlockSparseMatrix:
    """Convert a SciPy sparse matrix to block-sparse storage.

    Only blocks that contain at least one stored element above ``threshold``
    are created (with ``threshold=0.0`` every stored element counts, an
    explicit zero included); within a created block the full dense content
    of that block region is stored (including elements below the threshold),
    matching DBCSR's block-level granularity.  Duplicate entries are summed
    in float64, in storage order.

    One O(nnz) pass: the values of all created blocks are accumulated into a
    single contiguous buffer (blocks in row-major block order), which is the
    result's value buffer.
    """
    result = BlockSparseMatrix(row_block_sizes, col_block_sizes)
    rows, cols = result.shape
    if matrix.shape != (rows, cols):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match block structure "
            f"({rows}, {cols})"
        )
    n_block_cols = result.n_block_cols
    block_of_row = np.repeat(np.arange(result.n_block_rows), result.row_block_sizes)
    block_of_col = np.repeat(np.arange(n_block_cols), result.col_block_sizes)

    def block_ids(entries: sp.coo_matrix) -> np.ndarray:
        return block_of_row[entries.row] * n_block_cols + block_of_col[entries.col]

    # the entries as stored decide which blocks exist ...
    stored = matrix.tocoo()
    stored_ids = block_ids(stored)
    if threshold > 0.0:
        stored_ids = stored_ids[np.abs(stored.data) > threshold]
    if stored_ids.size == 0:
        return result
    stored_ids.sort()
    occupied = stored_ids[np.r_[True, stored_ids[1:] != stored_ids[:-1]]]
    # ... their values are the CSR form's (SciPy sums the duplicates of a COO
    # input when converting), every element of an existing block included
    entries = matrix.tocsr().tocoo()
    ids = block_ids(entries)
    slot = np.searchsorted(occupied, ids)
    kept = occupied[np.minimum(slot, occupied.size - 1)] == ids
    slot = slot[kept]

    block_row, block_col = np.divmod(occupied, n_block_cols)
    heights = result.row_block_sizes[block_row]
    widths = result.col_block_sizes[block_col]
    offsets = np.concatenate(([0], np.cumsum(heights * widths)))
    positions = (
        offsets[slot]
        + (entries.row[kept] - result.row_starts[block_row][slot]) * widths[slot]
        + (entries.col[kept] - result.col_starts[block_col][slot])
    )
    # bincount adds in input order from 0.0, exactly like densifying the CSR
    buffer = np.bincount(positions, weights=entries.data[kept], minlength=offsets[-1])
    return BlockSparseMatrix.from_index(
        result.row_block_sizes, result.col_block_sizes, block_row, block_col,
        buffer, offsets,
    )


def block_matrix_to_dense(matrix: BlockSparseMatrix) -> np.ndarray:
    """Densify a block-sparse matrix: one scatter of whole runs."""
    dense = np.zeros(matrix.shape)
    rows, cols, _, values = matrix.block_index()
    if values.size:
        run = _run(matrix)
        dense.reshape(-1, run)[_dense_runs(matrix, rows, cols, run)] = values.reshape(
            -1, run
        )
    return dense


def block_matrix_to_csr(matrix: BlockSparseMatrix) -> sp.csr_matrix:
    """Convert block-sparse storage to a SciPy CSR matrix.

    Every element of a stored block becomes a stored CSR element (zeros
    included), in canonical order (columns sorted within each row, no
    duplicates).  One gather of whole runs of the value buffer: the run of
    block row line ``(block, row)`` lands at its row's CSR start plus the
    widths of the blocks left of it in that block row.
    """
    rows, cols, _, values = matrix.block_index()
    if not values.size:
        return sp.csr_matrix(matrix.shape)
    run = _run(matrix)
    widths = matrix.col_block_sizes[cols]
    # the widths of the blocks left of each block in its block row
    order = np.argsort(rows * matrix.n_block_cols + cols, kind="stable")
    left = np.cumsum(widths[order]) - widths[order]
    sorted_rows = rows[order]
    left -= left[np.searchsorted(sorted_rows, sorted_rows)]
    left_of = np.empty_like(left)
    left_of[order] = left
    row_width = np.bincount(rows, weights=widths, minlength=matrix.n_block_rows)
    indptr = np.concatenate(
        ([0], np.cumsum(np.repeat(row_width.astype(np.int64), matrix.row_block_sizes)))
    )
    heights = matrix.row_block_sizes[rows]
    line_rows = np.repeat(matrix.row_starts[rows], heights) + concat_ranges(0, heights)
    line_widths = np.repeat(widths, heights) // run
    targets = concat_ranges(
        (indptr[line_rows] + np.repeat(left_of, heights)) // run, line_widths
    )
    index_dtype = np.int32 if max(matrix.shape) < 2**31 else np.int64
    # the buffer run at each CSR run, and the first column of that run
    source = np.empty_like(targets)
    source[targets] = np.arange(targets.size)
    data = values.reshape(-1, run).take(source, axis=0).reshape(-1)
    run_columns = concat_ranges(
        np.repeat(matrix.col_starts[cols], heights) // run, line_widths
    ).astype(index_dtype)[source]
    in_run = np.arange(run, dtype=index_dtype)
    indices = run_columns[:, None] * index_dtype(run) + in_run
    return sp.csr_matrix(
        (data, indices.reshape(-1), indptr.astype(index_dtype)), shape=matrix.shape
    )
