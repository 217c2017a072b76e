"""Block-transfer planning with deduplication (Sec. IV-A3 / IV-B).

To assemble its submatrices a rank needs a copy of every non-zero block that
appears in any of them.  Blocks are typically shared between many overlapping
submatrices; transferring them once per submatrix would multiply the traffic.
The CP2K implementation therefore exchanges each required block exactly once
per (owner rank, consumer rank) pair during initialization, buffers it
locally, and assembles the submatrices from the local buffer without further
communication.  After the computation the result blocks are copied back to
their owners.

:func:`plan_transfers` reproduces this planning step: given the global block
sparsity pattern, the block→rank ownership and the submatrix→rank assignment
it derives, per rank, which blocks must be fetched (deduplicated), how many
bytes that is, how much would have been transferred without deduplication,
and the write-back volume — and can convert the plan into a
:class:`~repro.parallel.stats.TrafficLog` for the machine model.

Since the plan is at block level, a rank's shard
(:class:`repro.core.shard.ShardedPlan`) packs exactly these required blocks
into its local buffer: the exact deduplicated whole-block volume *is* the
bytes the shard gathers, so it is the one fetch volume reported.  The fast
planning (``per_group_dedup=False``) over-approximates it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.combination import ColumnGrouping
from repro.core.submatrix import submatrix_block_rows
from repro.dbcsr.coo import CooBlockList
from repro.dbcsr.distribution import BlockDistribution
from repro.parallel.stats import TrafficLog

__all__ = [
    "RankTransferSummary",
    "TransferPlan",
    "plan_transfers",
]


@dataclasses.dataclass
class RankTransferSummary:
    """Transfer summary of a single rank.

    Attributes
    ----------
    required_blocks:
        Sorted array of IDs (positions in the COO list) of all blocks needed
        by this rank's submatrices.
    fetch_bytes:
        Bytes fetched from remote ranks (each remote block counted once —
        the deduplicated whole-block volume).
    fetch_bytes_without_dedup:
        Bytes that would be fetched if every submatrix transferred its blocks
        independently (each block counted once per submatrix that uses it).
    writeback_bytes:
        Bytes of result blocks sent back to their owning ranks.
    n_submatrices:
        Number of submatrices assembled by this rank.
    """

    required_blocks: np.ndarray
    fetch_bytes: float
    fetch_bytes_without_dedup: float
    writeback_bytes: float
    n_submatrices: int


@dataclasses.dataclass
class TransferPlan:
    """Complete transfer plan of a distributed submatrix-method run."""

    per_rank: List[RankTransferSummary]
    fetch_matrix: np.ndarray  # (n_ranks, n_ranks) bytes, owner -> consumer
    writeback_matrix: np.ndarray  # (n_ranks, n_ranks) bytes, consumer -> owner

    @property
    def n_ranks(self) -> int:
        return len(self.per_rank)

    @property
    def total_fetch_bytes(self) -> float:
        """Total deduplicated whole-block fetch volume."""
        return float(sum(summary.fetch_bytes for summary in self.per_rank))

    @property
    def total_fetch_bytes_without_dedup(self) -> float:
        """Total fetch volume without deduplication."""
        return float(
            sum(summary.fetch_bytes_without_dedup for summary in self.per_rank)
        )

    @property
    def deduplication_savings(self) -> float:
        """Fraction of transfer volume saved by deduplication (0..1)."""
        without = self.total_fetch_bytes_without_dedup
        if without == 0:
            return 0.0
        return 1.0 - self.total_fetch_bytes / without

    @property
    def total_writeback_bytes(self) -> float:
        """Total write-back volume."""
        return float(sum(summary.writeback_bytes for summary in self.per_rank))

    def to_traffic_log(self, coo_length: int = 0) -> TrafficLog:
        """Convert the plan into a per-rank traffic log.

        The fetch and write-back messages, plus the allgather of the COO
        block list performed during initialization (Sec. IV-A1): every rank
        must learn the global sparsity pattern, two 4-byte integers per
        non-zero block from every other rank.  ``coo_length`` is the number
        of non-zero blocks (0 leaves the allgather out).
        """
        log = TrafficLog(self.n_ranks)
        log.record_message_matrix(self.fetch_matrix)
        log.record_message_matrix(self.writeback_matrix)
        if self.n_ranks > 1 and coo_length > 0:
            log.record_allgather(8.0 * coo_length / self.n_ranks)
        return log


@dataclasses.dataclass
class _PlanningTables:
    """Precomputed per-pattern lookup tables of one planning pass."""

    coo: CooBlockList
    id_matrix: sp.csr_matrix
    owners_by_id: np.ndarray
    bytes_by_id: np.ndarray
    column_start: np.ndarray

    @classmethod
    def build(
        cls,
        coo: CooBlockList,
        block_sizes: np.ndarray,
        distribution: BlockDistribution,
        bytes_per_element: int,
    ) -> "_PlanningTables":
        # CSR matrix whose stored values are (block ID + 1); indexing a
        # sub-pattern of it recovers the global block IDs of the retained
        # blocks without any search.
        id_matrix = sp.coo_matrix(
            (
                np.arange(1, len(coo) + 1, dtype=np.int64),
                (coo.rows, coo.cols),
            ),
            shape=(coo.n_block_rows, coo.n_block_cols),
        ).tocsr()
        owners_by_id = distribution.owners_of_blocks(coo.rows, coo.cols)
        bytes_by_id = (
            block_sizes[coo.rows]
            * block_sizes[coo.cols]
            * float(bytes_per_element)
        )
        # blocks of one block column occupy a contiguous ID range (the COO
        # list is sorted by column): column_start[c] .. column_start[c+1]
        column_start = np.searchsorted(coo.cols, np.arange(coo.n_block_cols + 1))
        return cls(
            coo=coo,
            id_matrix=id_matrix,
            owners_by_id=owners_by_id,
            bytes_by_id=bytes_by_id,
            column_start=column_start,
        )


def _plan_rank(
    rank: int,
    group_indices: List[int],
    tables: _PlanningTables,
    grouping: ColumnGrouping,
    per_group_dedup: bool,
    n_ranks: int,
):
    """Plan one rank's transfers; the per-rank body of :func:`plan_transfers`.

    Returns ``(summary, fetch_column, writeback_row)`` — the rank's
    :class:`RankTransferSummary` plus its column/row of the owner→consumer
    byte matrices.
    """
    coo = tables.coo
    owners_by_id = tables.owners_by_id
    bytes_by_id = tables.bytes_by_id
    column_start = tables.column_start
    duplicate_bytes = 0.0
    writeback = 0.0
    required_flags = np.zeros(len(coo), dtype=bool)
    fetch_column = np.zeros(n_ranks)
    writeback_row = np.zeros(n_ranks)
    if per_group_dedup:
        column_batches = [
            np.asarray(grouping.groups[g], dtype=int) for g in group_indices
        ]
    else:
        merged = [
            column for g in group_indices for column in grouping.groups[g]
        ]
        column_batches = [np.asarray(merged, dtype=int)] if merged else []
    for columns in column_batches:
        retained = submatrix_block_rows(coo, columns)
        # non-zero blocks inside the submatrix: their IDs come straight
        # out of the sub-pattern of the ID matrix
        block_ids = tables.id_matrix[retained][:, retained].data - 1
        owners = owners_by_id[block_ids]
        nbytes = bytes_by_id[block_ids]
        remote_mask = owners != rank
        duplicate_bytes += float(nbytes[remote_mask].sum())
        required_flags[block_ids] = True
        # result blocks written back: blocks of the generating columns
        wb_ids = np.concatenate(
            [np.arange(column_start[c], column_start[c + 1]) for c in columns]
        )
        wb_owners = owners_by_id[wb_ids]
        wb_bytes = bytes_by_id[wb_ids]
        wb_remote = wb_owners != rank
        writeback += float(wb_bytes[wb_remote].sum())
        np.add.at(writeback_row, wb_owners[wb_remote], wb_bytes[wb_remote])
    required_ids = np.flatnonzero(required_flags)
    unique_owners = owners_by_id[required_ids]
    unique_bytes = bytes_by_id[required_ids]
    remote_mask = unique_owners != rank
    fetch = float(unique_bytes[remote_mask].sum())
    np.add.at(fetch_column, unique_owners[remote_mask], unique_bytes[remote_mask])
    summary = RankTransferSummary(
        required_blocks=required_ids,
        fetch_bytes=fetch,
        fetch_bytes_without_dedup=duplicate_bytes,
        writeback_bytes=writeback,
        n_submatrices=len(group_indices),
    )
    return summary, fetch_column, writeback_row


def plan_transfers(
    coo: CooBlockList,
    block_sizes: Sequence[int],
    distribution: BlockDistribution,
    grouping: ColumnGrouping,
    rank_of_group: Sequence[int],
    bytes_per_element: int = 8,
    per_group_dedup: bool = True,
) -> TransferPlan:
    """Plan all block transfers of a distributed submatrix-method run.

    Parameters
    ----------
    coo:
        Global block sparsity pattern (deterministically sorted COO list).
    block_sizes:
        Block sizes (one per block row/column; the matrix is square at block
        level).
    distribution:
        Block→rank ownership of the DBCSR matrix.
    grouping:
        Grouping of block columns into submatrices.
    rank_of_group:
        Rank responsible for each group (same length as ``grouping.groups``).
    bytes_per_element:
        Storage size of a matrix element (8 for float64).
    per_group_dedup:
        ``True`` (default) walks every submatrix individually, which yields
        both the deduplicated fetch volume and the volume that would be
        transferred without deduplication.  ``False`` computes the per-rank
        required-block set from the union of each rank's retained block rows
        in one step — much faster for large patterns with many block columns
        per rank, at the cost of a slight overestimate of the fetch volume
        and no "without deduplication" figure (it is reported equal to the
        fetch volume).  The fast path is used by the large-system cost
        models.
    """
    block_sizes = np.asarray(list(block_sizes), dtype=int)
    rank_of_group = list(rank_of_group)
    if len(rank_of_group) != grouping.n_submatrices:
        raise ValueError("rank_of_group must assign a rank to every group")
    n_ranks = distribution.n_ranks
    tables = _PlanningTables.build(coo, block_sizes, distribution, bytes_per_element)

    per_rank: List[RankTransferSummary] = []
    fetch_matrix = np.zeros((n_ranks, n_ranks))
    writeback_matrix = np.zeros((n_ranks, n_ranks))

    groups_of_rank = _groups_of_rank(rank_of_group, n_ranks)
    for rank in range(n_ranks):
        summary, fetch_column, writeback_row = _plan_rank(
            rank, groups_of_rank[rank], tables, grouping, per_group_dedup, n_ranks
        )
        per_rank.append(summary)
        fetch_matrix[:, rank] = fetch_column
        writeback_matrix[rank] = writeback_row
    return TransferPlan(
        per_rank=per_rank,
        fetch_matrix=fetch_matrix,
        writeback_matrix=writeback_matrix,
    )


def _groups_of_rank(
    rank_of_group: Sequence[int], n_ranks: int
) -> Dict[int, List[int]]:
    """Group submatrices per rank, validating the assignment range."""
    groups_of_rank: Dict[int, List[int]] = {rank: [] for rank in range(n_ranks)}
    for group_index, rank in enumerate(rank_of_group):
        if not 0 <= rank < n_ranks:
            raise IndexError(f"rank {rank} out of range")
        groups_of_rank[rank].append(group_index)
    return groups_of_rank
