"""Conversions between block-sparse, SciPy sparse and dense representations.

The chemistry substrate produces ``scipy.sparse`` matrices with a known block
(molecule) structure; the DBCSR substrate and the submatrix method operate on
:class:`~repro.dbcsr.block_matrix.BlockSparseMatrix`.  These helpers move
data between the representations while preserving the block structure and
dropping blocks that are entirely below a threshold.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
import scipy.sparse as sp

from repro.dbcsr.block_matrix import BlockSparseMatrix

__all__ = [
    "block_matrix_from_dense",
    "block_matrix_from_csr",
    "block_matrix_to_dense",
    "block_matrix_to_csr",
]


def block_matrix_from_dense(
    matrix: np.ndarray,
    row_block_sizes: Iterable[int],
    col_block_sizes: Optional[Iterable[int]] = None,
    threshold: float = 0.0,
) -> BlockSparseMatrix:
    """Cut a dense matrix into blocks, keeping blocks above ``threshold``.

    A block is kept when its largest absolute element is strictly greater
    than ``threshold`` (with ``threshold=0.0`` all blocks containing any
    non-zero are kept).
    """
    matrix = np.asarray(matrix, dtype=float)
    result = BlockSparseMatrix(row_block_sizes, col_block_sizes)
    rows, cols = result.shape
    if matrix.shape != (rows, cols):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match block structure "
            f"({rows}, {cols})"
        )
    for bi in range(result.n_block_rows):
        r0, r1 = result.row_starts[bi], result.row_starts[bi + 1]
        for bj in range(result.n_block_cols):
            c0, c1 = result.col_starts[bj], result.col_starts[bj + 1]
            block = matrix[r0:r1, c0:c1]
            peak = np.max(np.abs(block)) if block.size else 0.0
            if peak > threshold or (threshold == 0.0 and peak > 0.0):
                result.put_block(bi, bj, block)
    return result


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
    single contiguous buffer (blocks in row-major block order) and the
    stored blocks are views into it.
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
    occupied = np.unique(stored_ids)
    if occupied.size == 0:
        return result
    # ... their values are the CSR form's (SciPy sums the duplicates of a COO
    # input when converting), every element of an existing block included
    entries = matrix.tocsr().tocoo()
    ids = block_ids(entries)
    kept = np.isin(ids, occupied)
    slot = np.searchsorted(occupied, ids[kept])

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
    blocks = result.raw_blocks()
    for bi, bj, start, stop, height in zip(
        block_row.tolist(),
        block_col.tolist(),
        offsets[:-1].tolist(),
        offsets[1:].tolist(),
        heights.tolist(),
    ):
        blocks[bi, bj] = buffer[start:stop].reshape(height, -1)
    return result


def block_matrix_to_dense(matrix: BlockSparseMatrix) -> np.ndarray:
    """Densify a block-sparse matrix."""
    rows, cols = matrix.shape
    dense = np.zeros((rows, cols))
    for bi, bj, block in matrix.iter_blocks():
        r0 = matrix.row_starts[bi]
        c0 = matrix.col_starts[bj]
        dense[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] = block
    return dense


def block_matrix_to_csr(matrix: BlockSparseMatrix) -> sp.csr_matrix:
    """Convert block-sparse storage to a SciPy CSR matrix.

    Every element of a stored block becomes a stored CSR element (zeros
    included).  The element coordinates are generated once per distinct
    block *shape*, not once per block.
    """
    stored = matrix.raw_blocks()
    if not stored:
        return sp.csr_matrix(matrix.shape)
    keys = np.array(list(stored), dtype=int)
    heights = matrix.row_block_sizes[keys[:, 0]]
    widths = matrix.col_block_sizes[keys[:, 1]]
    row_starts = matrix.row_starts[keys[:, 0]]
    col_starts = matrix.col_starts[keys[:, 1]]
    blocks = list(stored.values())
    rows_idx = []
    cols_idx = []
    values = []
    shape_ids = heights * (int(widths.max()) + 1) + widths
    for shape_id in np.unique(shape_ids):
        members = np.flatnonzero(shape_ids == shape_id)
        nr, nc = int(heights[members[0]]), int(widths[members[0]])
        local_r = np.repeat(np.arange(nr), nc)
        local_c = np.tile(np.arange(nc), nr)
        rows_idx.append((row_starts[members][:, None] + local_r).ravel())
        cols_idx.append((col_starts[members][:, None] + local_c).ravel())
        values.append(
            np.concatenate([blocks[member].ravel() for member in members.tolist()])
        )
    return sp.coo_matrix(
        (
            np.concatenate(values),
            (np.concatenate(rows_idx), np.concatenate(cols_idx)),
        ),
        shape=matrix.shape,
    ).tocsr()
