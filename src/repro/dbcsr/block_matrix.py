"""Block-compressed sparse matrix storage.

A :class:`BlockSparseMatrix` is defined by a list of block-row sizes, a list
of block-column sizes and a dictionary of dense blocks indexed by
(block-row, block-column).  Missing blocks are implicitly zero.  This mirrors
the DBCSR storage format used by CP2K: the sparsity is exploited at the level
of blocks, not individual elements (Sec. IV of the paper), which is exactly
the granularity the submatrix method operates at.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["BlockSparseMatrix"]

BlockKey = Tuple[int, int]


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
        Optional initial blocks, a mapping from (block row, block column) to
        dense arrays of the corresponding shape.
    """

    def __init__(
        self,
        row_block_sizes: Iterable[int],
        col_block_sizes: Optional[Iterable[int]] = None,
        blocks: Optional[Dict[BlockKey, np.ndarray]] = None,
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
        self._blocks: Dict[BlockKey, np.ndarray] = {}
        if blocks:
            for (bi, bj), data in blocks.items():
                self.put_block(bi, bj, data)

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
        return len(self._blocks)

    @property
    def nnz_elements(self) -> int:
        """Number of elements covered by stored blocks."""
        return int(
            sum(
                self.row_block_sizes[bi] * self.col_block_sizes[bj]
                for bi, bj in self._blocks
            )
        )

    def block_shape(self, bi: int, bj: int) -> Tuple[int, int]:
        """Shape of block (bi, bj)."""
        self._check_block(bi, bj)
        return int(self.row_block_sizes[bi]), int(self.col_block_sizes[bj])

    def block_occupation(self) -> float:
        """Fraction of blocks that are non-zero (block-wise sparsity)."""
        total = self.n_block_rows * self.n_block_cols
        return self.nnz_blocks / total if total else 0.0

    def element_occupation(self) -> float:
        """Fraction of matrix elements covered by non-zero blocks."""
        rows, cols = self.shape
        total = rows * cols
        return self.nnz_elements / total if total else 0.0

    def same_block_structure(self, other: "BlockSparseMatrix") -> bool:
        """Whether ``other`` has identical row and column block sizes."""
        return np.array_equal(
            self.row_block_sizes, other.row_block_sizes
        ) and np.array_equal(self.col_block_sizes, other.col_block_sizes)

    # ------------------------------------------------------------------ #
    # block access
    # ------------------------------------------------------------------ #
    def put_block(
        self,
        bi: int,
        bj: int,
        data: np.ndarray,
        accumulate: bool = False,
        copy: bool = True,
    ) -> None:
        """Store a dense block at (bi, bj).

        Parameters
        ----------
        accumulate:
            If true, add to an existing block instead of replacing it.
        copy:
            If false, store ``data`` without copying (zero-copy).  The caller
            must guarantee the array is float64 and not mutated afterwards;
            the vectorized scatter path uses this to hand out views into one
            preallocated result buffer.
        """
        self._check_block(bi, bj)
        data = np.asarray(data, dtype=float)
        expected = self.block_shape(bi, bj)
        if data.shape != expected:
            raise ValueError(
                f"block ({bi}, {bj}) must have shape {expected}, got {data.shape}"
            )
        if accumulate and (bi, bj) in self._blocks:
            self._blocks[(bi, bj)] = self._blocks[(bi, bj)] + data
        else:
            self._blocks[(bi, bj)] = data.copy() if copy else data

    def get_block(self, bi: int, bj: int) -> Optional[np.ndarray]:
        """The dense block at (bi, bj), or ``None`` if it is zero."""
        self._check_block(bi, bj)
        return self._blocks.get((bi, bj))

    def has_block(self, bi: int, bj: int) -> bool:
        """Whether block (bi, bj) is stored."""
        self._check_block(bi, bj)
        return (bi, bj) in self._blocks

    def remove_block(self, bi: int, bj: int) -> None:
        """Delete block (bi, bj) if present."""
        self._check_block(bi, bj)
        self._blocks.pop((bi, bj), None)

    def raw_blocks(self) -> Dict[BlockKey, np.ndarray]:
        """The underlying block dictionary, without copying.

        Performance accessor for bulk operations (packing all block values
        into one flat buffer); treat the returned mapping as read-only.
        """
        return self._blocks

    def block_keys(self) -> List[BlockKey]:
        """Stored block coordinates, sorted by (column, row).

        The column-major order matches the deterministic COO ordering used by
        the submatrix implementation in CP2K (Sec. IV-A1), where the position
        of a block in the sorted list serves as its global ID.
        """
        return sorted(self._blocks.keys(), key=lambda key: (key[1], key[0]))

    def iter_blocks(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Iterate over stored blocks as (bi, bj, data) in deterministic order."""
        for bi, bj in self.block_keys():
            yield bi, bj, self._blocks[(bi, bj)]

    def nonzero_block_rows(self, bj: int) -> List[int]:
        """Block rows with a non-zero block in block column ``bj``."""
        if not 0 <= bj < self.n_block_cols:
            raise IndexError(f"block column {bj} out of range")
        return sorted(bi for (bi, col) in self._blocks if col == bj)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def copy(self) -> "BlockSparseMatrix":
        """Deep copy."""
        return BlockSparseMatrix(
            self.row_block_sizes,
            self.col_block_sizes,
            {key: block.copy() for key, block in self._blocks.items()},
        )

    def transpose(self) -> "BlockSparseMatrix":
        """Transpose (blocks are transposed and re-indexed)."""
        result = BlockSparseMatrix(self.col_block_sizes, self.row_block_sizes)
        for (bi, bj), block in self._blocks.items():
            result.put_block(bj, bi, block.T)
        return result

    def scale(self, alpha: float) -> "BlockSparseMatrix":
        """Return ``alpha * self``."""
        result = BlockSparseMatrix(self.row_block_sizes, self.col_block_sizes)
        for (bi, bj), block in self._blocks.items():
            result.put_block(bi, bj, alpha * block)
        return result

    def add(self, other: "BlockSparseMatrix", alpha: float = 1.0) -> "BlockSparseMatrix":
        """Return ``self + alpha * other``."""
        if not self.same_block_structure(other):
            raise ValueError("block structures do not match")
        result = self.copy()
        for (bi, bj), block in other._blocks.items():
            result.put_block(bi, bj, alpha * block, accumulate=True)
        return result

    def __add__(self, other: "BlockSparseMatrix") -> "BlockSparseMatrix":
        return self.add(other, 1.0)

    def __sub__(self, other: "BlockSparseMatrix") -> "BlockSparseMatrix":
        return self.add(other, -1.0)

    def matmul(
        self, other: "BlockSparseMatrix", flop_counter: Optional[list] = None
    ) -> "BlockSparseMatrix":
        """Serial block sparse matrix–matrix multiplication.

        Parameters
        ----------
        other:
            Right factor; its row block sizes must equal this matrix's column
            block sizes.
        flop_counter:
            Optional single-element list that is incremented by the number of
            floating-point operations (2·m·k·n per block triple).
        """
        if not np.array_equal(self.col_block_sizes, other.row_block_sizes):
            raise ValueError("inner block dimensions do not match")
        result = BlockSparseMatrix(self.row_block_sizes, other.col_block_sizes)
        # index other's blocks by block row for fast lookup
        by_row: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        for (bk, bj), block in other._blocks.items():
            by_row.setdefault(bk, []).append((bj, block))
        flops = 0.0
        for (bi, bk), a_block in self._blocks.items():
            partners = by_row.get(bk)
            if not partners:
                continue
            for bj, b_block in partners:
                product = a_block @ b_block
                flops += 2.0 * a_block.shape[0] * a_block.shape[1] * b_block.shape[1]
                result.put_block(bi, bj, product, accumulate=True)
        if flop_counter is not None:
            flop_counter[0] += flops
        return result

    def __matmul__(self, other: "BlockSparseMatrix") -> "BlockSparseMatrix":
        return self.matmul(other)

    # ------------------------------------------------------------------ #
    # reductions and norms
    # ------------------------------------------------------------------ #
    def trace(self) -> float:
        """Trace of the matrix (requires a square block structure)."""
        if not np.array_equal(self.row_block_sizes, self.col_block_sizes):
            raise ValueError("trace requires identical row/column block sizes")
        total = 0.0
        for bi in range(self.n_block_rows):
            block = self._blocks.get((bi, bi))
            if block is not None:
                total += float(np.trace(block))
        return total

    def frobenius_norm(self) -> float:
        """Frobenius norm over all stored blocks."""
        if not self._blocks:
            return 0.0
        return float(
            np.sqrt(sum(float(np.sum(block * block)) for block in self._blocks.values()))
        )

    def max_abs(self) -> float:
        """Largest absolute element."""
        if not self._blocks:
            return 0.0
        return float(max(np.max(np.abs(block)) for block in self._blocks.values()))

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def identity(cls, block_sizes: Iterable[int]) -> "BlockSparseMatrix":
        """Block-diagonal identity matrix with the given block sizes."""
        matrix = cls(block_sizes)
        for bi, size in enumerate(matrix.row_block_sizes):
            matrix.put_block(bi, bi, np.eye(int(size)))
        return matrix

    def _check_block(self, bi: int, bj: int) -> None:
        if not 0 <= bi < self.n_block_rows:
            raise IndexError(f"block row {bi} out of range")
        if not 0 <= bj < self.n_block_cols:
            raise IndexError(f"block column {bj} out of range")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockSparseMatrix(shape={self.shape}, blocks="
            f"{self.n_block_rows}x{self.n_block_cols}, nnz_blocks={self.nnz_blocks})"
        )
