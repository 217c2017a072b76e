"""Block-compressed sparse matrix substrate (libDBCSR stand-in).

CP2K stores its large sparse matrices in the DBCSR format: the matrix is
divided into a 2D grid of small blocks (5–30 rows/columns each, one block row
per atom or molecule), the map of non-zero blocks is kept in CSR form, the
non-zero blocks themselves are dense, and the blocks are distributed over a
2D cartesian grid of MPI ranks (Sec. II-C of the paper).

This subpackage recreates the parts of that data structure the submatrix
engine runs on:

* :class:`repro.dbcsr.block_matrix.BlockSparseMatrix` — the storage format
  with serial block-level arithmetic;
* :mod:`repro.dbcsr.distribution` — the 2D process grid and block→rank map
  the transfer planner reads ownership from;
* :mod:`repro.dbcsr.coo` — the deterministic global COO block list that the
  submatrix implementation builds during its initialization (Sec. IV-A1);
* :mod:`repro.dbcsr.convert` — conversions to/from SciPy sparse and dense
  arrays (a SciPy matrix enters the engine as a grid of 1×1 blocks).

The ``eps_filter`` truncation of the orthogonalized Kohn–Sham matrix lives
in :func:`repro.chem.orthogonalize.orthogonalized_ks`.
"""

from repro.dbcsr.block_matrix import BlockSparseMatrix
from repro.dbcsr.distribution import BlockDistribution, ProcessGrid2D
from repro.dbcsr.convert import (
    block_matrix_from_csr,
    block_matrix_from_dense,
    block_matrix_to_csr,
    block_matrix_to_dense,
)
from repro.dbcsr.coo import CooBlockList

__all__ = [
    "BlockSparseMatrix",
    "BlockDistribution",
    "ProcessGrid2D",
    "block_matrix_from_csr",
    "block_matrix_from_dense",
    "block_matrix_to_csr",
    "block_matrix_to_dense",
    "CooBlockList",
]
