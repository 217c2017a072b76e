"""Cartesian rank topologies.

libDBCSR arranges the MPI ranks in a 2D cartesian grid and maps matrix block
rows and columns onto the grid (Sec. II-C of the paper).  Here the grid
decides block ownership (:class:`repro.dbcsr.distribution.BlockDistribution`).
"""

from __future__ import annotations

import math
from typing import Tuple

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
    """A 2D cartesian arrangement of ranks (row-major).

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CartesianGrid2D({self.rows}x{self.cols})"
