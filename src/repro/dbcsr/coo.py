"""Deterministic global COO view of the block sparsity pattern.

The submatrix implementation in CP2K starts by creating "a list of non-zero
blocks in a coordinate format (COO), which stores row and column of each
non-zero block.  This list is deterministically sorted by columns and rows
such that it is identical on all ranks.  This way, the position of a non-zero
block in this COO representation also serves as a unique ID for the block
throughout our implementation" (Sec. IV-A1 of the paper).

:class:`CooBlockList` reproduces that data structure; the traffic of building
it from distributed data (an allgather of the locally known block
coordinates) is accounted by :meth:`repro.core.transfers.TransferPlan.to_traffic_log`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.dbcsr.block_matrix import BlockSparseMatrix

__all__ = ["CooBlockList", "concat_ranges"]


def concat_ranges(starts, counts: np.ndarray) -> np.ndarray:
    """The ranges ``[s, s + c)`` concatenated: one ``arange``, one ``repeat``.

    Equal to ``np.concatenate([np.arange(s, s + c) for s, c in zip(starts,
    counts)])`` as int64, without the Python-level pass over the ranges
    (``starts`` may be one scalar shared by all of them).  This is the index
    arithmetic the plan layer expands its per-block records with
    (:mod:`repro.core.plan`, :mod:`repro.core.shard`).
    """
    counts = np.asarray(counts, dtype=np.int64)
    stops = np.cumsum(counts)
    total = int(stops[-1]) if stops.size else 0
    return np.arange(total, dtype=np.int64) + np.repeat(
        np.asarray(starts, dtype=np.int64) - (stops - counts), counts
    )


class CooBlockList:
    """Sorted list of non-zero block coordinates with unique block IDs."""

    def __init__(self, rows: Sequence[int], cols: Sequence[int], n_block_rows: int, n_block_cols: int):
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have the same length")
        if rows.size and (rows.min() < 0 or rows.max() >= n_block_rows):
            raise ValueError("block row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= n_block_cols):
            raise ValueError("block column index out of range")
        order = np.lexsort((rows, cols))  # sort by column, then row
        self.rows = rows[order]
        self.cols = cols[order]
        self.n_block_rows = int(n_block_rows)
        self.n_block_cols = int(n_block_cols)
        # coordinates -> ID, built on the first block_id/contains query: the
        # request path never asks, it addresses blocks by position
        self._id_of: Optional[Dict[Tuple[int, int], int]] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_block_matrix(cls, matrix: BlockSparseMatrix) -> "CooBlockList":
        """Build the COO list from a (logically distributed) block matrix."""
        keys = np.array(list(matrix.raw_blocks()), dtype=int).reshape(-1, 2)
        return cls(keys[:, 0], keys[:, 1], matrix.n_block_rows, matrix.n_block_cols)

    @classmethod
    def from_pattern(cls, pattern: sp.spmatrix) -> "CooBlockList":
        """Build the COO list from a boolean block-sparsity pattern."""
        coo = pattern.tocoo()
        return cls(coo.row, coo.col, pattern.shape[0], pattern.shape[1])

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.rows)

    def _ids(self) -> Dict[Tuple[int, int], int]:
        if self._id_of is None:
            self._id_of = {
                key: i
                for i, key in enumerate(zip(self.rows.tolist(), self.cols.tolist()))
            }
        return self._id_of

    def block_id(self, bi: int, bj: int) -> int:
        """Unique ID (position in the sorted list) of block (bi, bj)."""
        try:
            return self._ids()[(int(bi), int(bj))]
        except KeyError as exc:
            raise KeyError(f"block ({bi}, {bj}) is not in the COO list") from exc

    def block_at(self, block_id: int) -> Tuple[int, int]:
        """Block coordinates of a given ID."""
        if not 0 <= block_id < len(self):
            raise IndexError(f"block id {block_id} out of range")
        return int(self.rows[block_id]), int(self.cols[block_id])

    def contains(self, bi: int, bj: int) -> bool:
        """Whether block (bi, bj) is non-zero."""
        return (int(bi), int(bj)) in self._ids()

    def blocks_in_column(self, bj: int) -> List[int]:
        """Sorted block rows of the non-zero blocks in block column ``bj``."""
        start, stop = np.searchsorted(self.cols, [bj, bj + 1])
        return sorted(int(r) for r in self.rows[start:stop])

    def blocks_in_columns(self, columns: Sequence[int]) -> List[int]:
        """Sorted union of non-zero block rows over several block columns."""
        return np.unique(self.entries_in_columns(list(columns))[1]).tolist()

    def column_ranges(self, columns: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Start/stop positions of the given block columns in the sorted list.

        Because the list is sorted by column, the entries of column ``c``
        occupy the contiguous ID range ``[start, stop)``; this is the lookup
        the extraction plans build on.
        """
        columns = np.atleast_1d(np.asarray(columns, dtype=int))
        starts = np.searchsorted(self.cols, columns)
        stops = np.searchsorted(self.cols, columns + 1)
        return starts, stops

    def entries_in_columns(
        self, columns: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All COO entries of the given block columns, as flat arrays.

        Returns ``(block_ids, rows, cols)`` where ``block_ids`` are the unique
        IDs (positions in the sorted list), concatenated column by column in
        the order the columns were given.
        """
        starts, stops = self.column_ranges(columns)
        ids = concat_ranges(starts, stops - starts)
        return ids, self.rows[ids], self.cols[ids]

    def fingerprint(self) -> str:
        """Deterministic content hash of the sparsity pattern.

        Used as (part of) the cache key for extraction plans: two block
        matrices with bitwise-identical patterns share their plans.
        """
        import hashlib

        digest = hashlib.sha1()
        digest.update(np.int64([self.n_block_rows, self.n_block_cols]).tobytes())
        digest.update(np.ascontiguousarray(self.rows, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(self.cols, dtype=np.int64).tobytes())
        return digest.hexdigest()

    def column_counts(self) -> np.ndarray:
        """Number of non-zero blocks per block column."""
        counts = np.zeros(self.n_block_cols, dtype=int)
        np.add.at(counts, self.cols, 1)
        return counts

    def to_pattern(self) -> sp.csr_matrix:
        """Boolean CSR pattern matrix of the non-zero blocks."""
        data = np.ones(len(self), dtype=bool)
        return sp.coo_matrix(
            (data, (self.rows, self.cols)),
            shape=(self.n_block_rows, self.n_block_cols),
        ).tocsr()
