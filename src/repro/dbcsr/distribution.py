"""Block distribution over a 2D process grid.

DBCSR arranges MPI ranks in a 2D cartesian topology and maps block rows and
block columns to grid rows and columns (Sec. II-C of the paper).  A block
(bi, bj) is owned by the rank at grid position
(row_distribution[bi], col_distribution[bj]); the default distribution is
round-robin, like DBCSR's.

In the submatrix implementation (Sec. IV-A) every rank knows this mapping and
uses it to determine from which rank it must request the blocks of the
submatrices it is responsible for.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.parallel.topology import CartesianGrid2D

__all__ = ["ProcessGrid2D", "BlockDistribution"]


class ProcessGrid2D(CartesianGrid2D):
    """A 2D process grid; alias of the generic cartesian grid.

    Kept as a distinct name so call sites read like DBCSR code.
    """


class BlockDistribution:
    """Mapping of matrix blocks to ranks of a 2D process grid.

    Parameters
    ----------
    n_block_rows, n_block_cols:
        Block dimensions of the distributed matrix.
    grid:
        Process grid.
    row_distribution, col_distribution:
        Optional explicit mapping of block rows/columns to grid rows/columns;
        round-robin by default.
    """

    def __init__(
        self,
        n_block_rows: int,
        n_block_cols: int,
        grid: ProcessGrid2D,
        row_distribution: Optional[np.ndarray] = None,
        col_distribution: Optional[np.ndarray] = None,
    ):
        if n_block_rows < 1 or n_block_cols < 1:
            raise ValueError("block dimensions must be positive")
        self.n_block_rows = int(n_block_rows)
        self.n_block_cols = int(n_block_cols)
        self.grid = grid
        if row_distribution is None:
            row_distribution = np.arange(self.n_block_rows) % grid.rows
        if col_distribution is None:
            col_distribution = np.arange(self.n_block_cols) % grid.cols
        self.row_distribution = np.asarray(row_distribution, dtype=int)
        self.col_distribution = np.asarray(col_distribution, dtype=int)
        if self.row_distribution.shape != (self.n_block_rows,):
            raise ValueError("row_distribution has wrong length")
        if self.col_distribution.shape != (self.n_block_cols,):
            raise ValueError("col_distribution has wrong length")
        if np.any(self.row_distribution < 0) or np.any(
            self.row_distribution >= grid.rows
        ):
            raise ValueError("row_distribution entries out of grid range")
        if np.any(self.col_distribution < 0) or np.any(
            self.col_distribution >= grid.cols
        ):
            raise ValueError("col_distribution entries out of grid range")

    @property
    def n_ranks(self) -> int:
        """Number of ranks in the process grid."""
        return self.grid.n_ranks

    def owner_of(self, bi: int, bj: int) -> int:
        """Rank owning block (bi, bj)."""
        if not 0 <= bi < self.n_block_rows:
            raise IndexError(f"block row {bi} out of range")
        if not 0 <= bj < self.n_block_cols:
            raise IndexError(f"block column {bj} out of range")
        return self.grid.rank_at(
            int(self.row_distribution[bi]), int(self.col_distribution[bj])
        )

    def owners_of_blocks(self, rows, cols) -> np.ndarray:
        """Owning rank of every (rows[i], cols[i]) block, vectorized.

        This is the bulk form of :meth:`owner_of` used by the transfer
        planner: one call resolves the ownership of a whole COO block list
        (row-major grid ordering, identical to :meth:`owner_of`).
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have the same shape")
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_block_rows):
            raise IndexError("block row out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= self.n_block_cols):
            raise IndexError("block column out of range")
        return (
            self.row_distribution[rows] * self.grid.cols
            + self.col_distribution[cols]
        )
