"""Block-compressed sparse matrix storage.

A :class:`BlockSparseMatrix` is defined by a list of block-row sizes, a list
of block-column sizes and its stored dense blocks, indexed by (block-row,
block-column).  Missing blocks are implicitly zero.  This mirrors the DBCSR
storage format used by CP2K: the sparsity is exploited at the level of
blocks, not individual elements (Sec. IV of the paper), which is exactly the
granularity the submatrix method operates at.

The blocks live in one of two forms, like DBCSR's data area and index: a
:class:`BlockIndex` — one row-major value buffer plus block rows, block
columns and offsets — which the bulk constructors build and the bulk readers
take in one vectorised pass (:meth:`BlockSparseMatrix.block_index`), and a
dictionary of blocks, built on the first block-level access (as views into
the buffer) or block by block.  A mutation (``put_block``, ``remove_block``,
handing out ``raw_blocks``) drops the index.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

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
        # the dictionary (None until asked for) and the index (None once
        # mutated); at least one of them is always set
        self._dict: Optional[Dict[BlockKey, np.ndarray]] = {}
        self._index: Optional[BlockIndex] = None
        if blocks:
            for (bi, bj), data in blocks.items():
                self.put_block(bi, bj, data)

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
        row-major slice of the float64 buffer ``values`` (not copied: the
        blocks are views into it), in this order.  ``offsets`` are the slice
        bounds when the caller has them; the coordinates must be unique."""
        matrix = cls(row_block_sizes, col_block_sizes)
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if offsets is None:
            sizes = matrix.row_block_sizes[rows] * matrix.col_block_sizes[cols]
            offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        if values.dtype != np.float64 or values.shape != (int(offsets[-1]),):
            raise ValueError(
                f"values must be a float64 vector of {int(offsets[-1])} elements"
            )
        matrix._index = BlockIndex(rows, cols, offsets, values)
        matrix._dict = None
        return matrix

    def block_index(self) -> BlockIndex:
        """The stored blocks as one :class:`BlockIndex`, in storage order.

        The matrix's own index (not copied) when it has one; else one
        assembled from the dictionary, in its order, and not kept — so an
        in-place edit of a block is seen by the next call either way.
        """
        if self._index is not None:
            return self._index
        blocks = self._dict
        keys = np.array(list(blocks), dtype=np.intp).reshape(-1, 2)
        values = (
            np.concatenate([block.reshape(-1) for block in blocks.values()])
            if blocks
            else np.zeros(0)
        )
        sizes = [block.size for block in blocks.values()]
        offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        return BlockIndex(keys[:, 0], keys[:, 1], offsets, values)

    def _blocks(self) -> Dict[BlockKey, np.ndarray]:
        """The block dictionary, built from the index on first use."""
        if self._dict is None:
            index = self._index
            bounds = index.offsets.tolist()
            self._dict = {
                (bi, bj): index.values[start:stop].reshape(height, -1)
                for bi, bj, start, stop, height in zip(
                    index.rows.tolist(),
                    index.cols.tolist(),
                    bounds[:-1],
                    bounds[1:],
                    self.row_block_sizes[index.rows].tolist(),
                )
            }
        return self._dict

    def _mutable_blocks(self) -> Dict[BlockKey, np.ndarray]:
        """The block dictionary, about to change: the index is dropped."""
        blocks = self._blocks()
        self._index = None
        return blocks

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
        if self._index is not None:
            return int(self._index.rows.size)
        return len(self._dict)

    @property
    def nnz_elements(self) -> int:
        """Number of elements covered by stored blocks."""
        if self._index is not None:
            return int(self._index.offsets[-1])
        return sum(block.size for block in self._dict.values())

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
            must guarantee the array is float64 and not mutated afterwards.
        """
        self._check_block(bi, bj)
        data = np.asarray(data, dtype=float)
        expected = self.block_shape(bi, bj)
        if data.shape != expected:
            raise ValueError(
                f"block ({bi}, {bj}) must have shape {expected}, got {data.shape}"
            )
        blocks = self._mutable_blocks()
        if accumulate and (bi, bj) in blocks:
            blocks[(bi, bj)] = blocks[(bi, bj)] + data
        else:
            blocks[(bi, bj)] = data.copy() if copy else data

    def get_block(self, bi: int, bj: int) -> Optional[np.ndarray]:
        """The dense block at (bi, bj), or ``None`` if it is zero."""
        self._check_block(bi, bj)
        return self._blocks().get((bi, bj))

    def has_block(self, bi: int, bj: int) -> bool:
        """Whether block (bi, bj) is stored."""
        self._check_block(bi, bj)
        return (bi, bj) in self._blocks()

    def remove_block(self, bi: int, bj: int) -> None:
        """Delete block (bi, bj) if present."""
        self._check_block(bi, bj)
        self._mutable_blocks().pop((bi, bj), None)

    def raw_blocks(self) -> Dict[BlockKey, np.ndarray]:
        """The underlying block dictionary, without copying.

        The caller may edit it — replace, add or delete blocks, or write
        into them — and every reader sees the edit, since handing it out
        drops the index (:meth:`block_index` then reads this dictionary).
        Bulk readers should call :meth:`block_index` instead.
        """
        return self._mutable_blocks()

    def block_keys(self) -> List[BlockKey]:
        """Stored block coordinates, sorted by (column, row).

        The column-major order matches the deterministic COO ordering used by
        the submatrix implementation in CP2K (Sec. IV-A1), where the position
        of a block in the sorted list serves as its global ID.
        """
        return sorted(self._blocks(), key=lambda key: (key[1], key[0]))

    def iter_blocks(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Iterate over stored blocks as (bi, bj, data) in deterministic order."""
        blocks = self._blocks()
        for bi, bj in self.block_keys():
            yield bi, bj, blocks[(bi, bj)]

    def nonzero_block_rows(self, bj: int) -> List[int]:
        """Block rows with a non-zero block in block column ``bj``."""
        if not 0 <= bj < self.n_block_cols:
            raise IndexError(f"block column {bj} out of range")
        return sorted(bi for (bi, col) in self._blocks() if col == bj)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def copy(self) -> "BlockSparseMatrix":
        """Deep copy."""
        return BlockSparseMatrix(
            self.row_block_sizes,
            self.col_block_sizes,
            {key: block.copy() for key, block in self._blocks().items()},
        )

    def transpose(self) -> "BlockSparseMatrix":
        """Transpose (blocks are transposed and re-indexed)."""
        result = BlockSparseMatrix(self.col_block_sizes, self.row_block_sizes)
        for (bi, bj), block in self._blocks().items():
            result.put_block(bj, bi, block.T)
        return result

    def scale(self, alpha: float) -> "BlockSparseMatrix":
        """Return ``alpha * self``."""
        result = BlockSparseMatrix(self.row_block_sizes, self.col_block_sizes)
        for (bi, bj), block in self._blocks().items():
            result.put_block(bi, bj, alpha * block)
        return result

    def add(self, other: "BlockSparseMatrix", alpha: float = 1.0) -> "BlockSparseMatrix":
        """Return ``self + alpha * other``."""
        if not self.same_block_structure(other):
            raise ValueError("block structures do not match")
        result = self.copy()
        for (bi, bj), block in other._blocks().items():
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
        for (bk, bj), block in other._blocks().items():
            by_row.setdefault(bk, []).append((bj, block))
        flops = 0.0
        for (bi, bk), a_block in self._blocks().items():
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
        blocks = self._blocks()
        for bi in range(self.n_block_rows):
            block = blocks.get((bi, bi))
            if block is not None:
                total += float(np.trace(block))
        return total

    def frobenius_norm(self) -> float:
        """Frobenius norm over all stored blocks."""
        blocks = self._blocks()
        if not blocks:
            return 0.0
        return float(
            np.sqrt(sum(float(np.sum(block * block)) for block in blocks.values()))
        )

    def max_abs(self) -> float:
        """Largest absolute element."""
        blocks = self._blocks()
        if not blocks:
            return 0.0
        return float(max(np.max(np.abs(block)) for block in blocks.values()))

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
