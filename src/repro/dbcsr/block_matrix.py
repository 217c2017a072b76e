"""Block-compressed sparse matrix storage.

A :class:`BlockSparseMatrix` is defined by a list of block-row sizes, a list
of block-column sizes and its stored dense blocks, indexed by (block-row,
block-column).  Missing blocks are implicitly zero.  This mirrors the DBCSR
storage format used by CP2K: the sparsity is exploited at the level of
blocks, not individual elements (Sec. IV of the paper), which is exactly the
granularity the submatrix method operates at.

Like DBCSR's data area and index, the blocks live in one
:class:`BlockIndex` — one row-major value buffer plus block rows, block
columns and offsets — which the bulk constructors build and the bulk readers
take in one vectorised pass (:meth:`BlockSparseMatrix.block_index`).  A
matrix given its blocks as a mapping packs them into that buffer once.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional, Tuple

import numpy as np

__all__ = ["BlockIndex", "BlockSparseMatrix"]

BlockKey = Tuple[int, int]


class BlockIndex(NamedTuple):
    """The stored blocks as one buffer: block ``i`` is ``(rows[i], cols[i])``
    and holds ``values[offsets[i]:offsets[i + 1]]`` row-major."""

    rows: np.ndarray
    cols: np.ndarray
    offsets: np.ndarray
    values: np.ndarray


class BlockSparseMatrix:
    """A sparse matrix stored as a 2D grid of dense blocks.

    Parameters
    ----------
    row_block_sizes:
        Sizes of the block rows (number of matrix rows per block row).
    col_block_sizes:
        Sizes of the block columns.  If omitted the matrix is square with the
        same block structure for rows and columns.
    blocks:
        Optional blocks, a mapping from (block row, block column) to dense
        arrays of the corresponding shape.  They are copied into the value
        buffer once, in the mapping's order.
    """

    def __init__(
        self,
        row_block_sizes: Iterable[int],
        col_block_sizes: Optional[Iterable[int]] = None,
        blocks: Optional[Mapping[BlockKey, np.ndarray]] = None,
    ):
        self.row_block_sizes = np.asarray(list(row_block_sizes), dtype=int)
        if col_block_sizes is None:
            self.col_block_sizes = self.row_block_sizes.copy()
        else:
            self.col_block_sizes = np.asarray(list(col_block_sizes), dtype=int)
        if np.any(self.row_block_sizes <= 0) or np.any(self.col_block_sizes <= 0):
            raise ValueError("block sizes must be positive")
        self.row_starts = np.concatenate(([0], np.cumsum(self.row_block_sizes)))
        self.col_starts = np.concatenate(([0], np.cumsum(self.col_block_sizes)))
        blocks = blocks or {}
        rows, cols = np.array(list(blocks), dtype=np.intp).reshape(-1, 2).T.copy()
        self._check_coordinates(rows, cols)
        heights = self.row_block_sizes[rows].tolist()
        widths = self.col_block_sizes[cols].tolist()
        for (key, data), shape in zip(blocks.items(), zip(heights, widths)):
            if np.shape(data) != shape:
                raise ValueError(
                    f"block {key} must have shape {shape}, got {np.shape(data)}"
                )
        values = [np.asarray(data, dtype=float).reshape(-1) for data in blocks.values()]
        self._index = self._indexed(rows, cols, np.concatenate([*values, np.zeros(0)]))

    @classmethod
    def from_index(
        cls,
        row_block_sizes: Iterable[int],
        col_block_sizes: Optional[Iterable[int]],
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        offsets: Optional[np.ndarray] = None,
    ) -> "BlockSparseMatrix":
        """The matrix whose block ``(rows[i], cols[i])`` is the ``i``-th
        row-major slice of the float64 buffer ``values`` (not copied), in
        this order.  ``offsets`` are the slice bounds when the caller has
        them.  A coordinate outside the block grid or given twice is a
        :class:`ValueError`."""
        matrix = cls(row_block_sizes, col_block_sizes)
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        matrix._check_coordinates(rows, cols)
        matrix._index = matrix._indexed(rows, cols, values, offsets)
        return matrix

    def _check_coordinates(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Every ``(rows[i], cols[i])`` names a block of the grid, once: one
        range test and one sort of the keys (``np.sort``, not ``np.unique``,
        which takes ~15× as long on a few thousand keys)."""
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise ValueError("block rows and columns must be vectors of one length")
        outside = (rows < 0) | (rows >= self.n_block_rows)
        outside |= (cols < 0) | (cols >= self.n_block_cols)
        if outside.any():
            first = int(np.argmax(outside))
            raise ValueError(
                f"block ({rows[first]}, {cols[first]}) is outside the "
                f"{self.n_block_rows}x{self.n_block_cols} block grid"
            )
        keys = rows * self.n_block_cols + cols
        ordered = np.sort(keys)
        if (ordered[1:] == ordered[:-1]).any():
            repeated = np.ones(keys.size, dtype=bool)
            repeated[np.unique(keys, return_index=True)[1]] = False
            first = int(np.argmax(repeated))
            raise ValueError(f"block ({rows[first]}, {cols[first]}) is stored twice")

    def _indexed(self, rows, cols, values, offsets=None) -> BlockIndex:
        """The index of checked coordinates over the buffer ``values``."""
        if offsets is None:
            sizes = self.row_block_sizes[rows] * self.col_block_sizes[cols]
            offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        if values.dtype != np.float64 or values.shape != (int(offsets[-1]),):
            raise ValueError(
                f"values must be a float64 vector of {int(offsets[-1])} elements"
            )
        return BlockIndex(rows, cols, offsets, values)

    def block_index(self) -> BlockIndex:
        """The stored blocks as one :class:`BlockIndex`, in storage order
        (the matrix's own, not copied)."""
        return self._index

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    @property
    def n_block_rows(self) -> int:
        """Number of block rows."""
        return len(self.row_block_sizes)

    @property
    def n_block_cols(self) -> int:
        """Number of block columns."""
        return len(self.col_block_sizes)

    @property
    def shape(self) -> Tuple[int, int]:
        """Element-level shape of the matrix."""
        return int(self.row_starts[-1]), int(self.col_starts[-1])

    @property
    def nnz_blocks(self) -> int:
        """Number of stored (non-zero) blocks."""
        return int(self._index.rows.size)

    @property
    def nnz_elements(self) -> int:
        """Number of elements covered by stored blocks."""
        return int(self._index.offsets[-1])

    def block_occupation(self) -> float:
        """Fraction of blocks that are non-zero (block-wise sparsity)."""
        total = self.n_block_rows * self.n_block_cols
        return self.nnz_blocks / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockSparseMatrix(shape={self.shape}, blocks="
            f"{self.n_block_rows}x{self.n_block_cols}, nnz_blocks={self.nnz_blocks})"
        )
