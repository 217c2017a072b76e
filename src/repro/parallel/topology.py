"""Cartesian rank topologies.

libDBCSR arranges the MPI ranks in a 2D cartesian grid and maps matrix block
rows and columns onto the grid (Sec. II-C of the paper); its Cannon-style
multiplication shifts data along the rows and columns of this grid.  Here the
grid decides block ownership (:class:`repro.dbcsr.distribution.BlockDistribution`).
"""

from __future__ import annotations

import math
from typing import List, Tuple

__all__ = ["balanced_dims", "CartesianGrid2D"]


def balanced_dims(n_ranks: int) -> Tuple[int, int]:
    """Choose a near-square factorization (rows, cols) of ``n_ranks``.

    Mirrors the behaviour of ``MPI_Dims_create`` for two dimensions: the two
    factors are as close to each other as possible, with rows >= cols.
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be positive")
    best = (n_ranks, 1)
    for cols in range(1, int(math.isqrt(n_ranks)) + 1):
        if n_ranks % cols == 0:
            best = (n_ranks // cols, cols)
    return best


class CartesianGrid2D:
    """A 2D cartesian arrangement of ranks with periodic shifts.

    Parameters
    ----------
    n_ranks:
        Total number of ranks.
    dims:
        Optional explicit (rows, cols); must multiply to ``n_ranks``.  If
        omitted a near-square factorization is chosen.
    """

    def __init__(self, n_ranks: int, dims: Tuple[int, int] = None):
        if n_ranks < 1:
            raise ValueError("n_ranks must be positive")
        if dims is None:
            dims = balanced_dims(n_ranks)
        rows, cols = int(dims[0]), int(dims[1])
        if rows * cols != n_ranks:
            raise ValueError(
                f"grid dims {rows}x{cols} do not match {n_ranks} ranks"
            )
        self.n_ranks = n_ranks
        self.rows = rows
        self.cols = cols

    def coords(self, rank: int) -> Tuple[int, int]:
        """(row, col) coordinates of ``rank`` (row-major ordering)."""
        self._check(rank)
        return divmod(rank, self.cols)

    def rank_at(self, row: int, col: int) -> int:
        """Rank at grid position (row, col), with periodic wrap-around."""
        return (row % self.rows) * self.cols + (col % self.cols)

    def shift(self, rank: int, dimension: int, displacement: int) -> Tuple[int, int]:
        """Source and destination ranks of a periodic shift.

        Parameters
        ----------
        rank:
            The calling rank.
        dimension:
            0 shifts along columns of the grid (changing the row index),
            1 shifts along rows (changing the column index) — matching
            ``MPI_Cart_shift`` semantics.
        displacement:
            Shift distance (positive or negative).

        Returns
        -------
        (source, destination):
            The rank this rank receives from and the rank it sends to.
        """
        row, col = self.coords(rank)
        if dimension == 0:
            destination = self.rank_at(row + displacement, col)
            source = self.rank_at(row - displacement, col)
        elif dimension == 1:
            destination = self.rank_at(row, col + displacement)
            source = self.rank_at(row, col - displacement)
        else:
            raise ValueError("dimension must be 0 or 1")
        return source, destination

    def row_ranks(self, row: int) -> List[int]:
        """All ranks in grid row ``row``."""
        return [self.rank_at(row, c) for c in range(self.cols)]

    def col_ranks(self, col: int) -> List[int]:
        """All ranks in grid column ``col``."""
        return [self.rank_at(r, col) for r in range(self.rows)]

    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise IndexError(f"rank {rank} out of range for {self.n_ranks} ranks")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CartesianGrid2D({self.rows}x{self.cols})"
