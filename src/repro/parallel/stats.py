"""Per-rank accounting of floating-point operations and communication.

The sharded submatrix pipeline records how much work and traffic each
simulated MPI rank performs (:meth:`repro.core.runner.DistributedSubmatrixPipeline.traffic_log`,
from its transfer plan).  The resulting :class:`TrafficLog` is the input to
the machine model that produces the simulated wall-clock times used in the
scaling experiments.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List

import numpy as np

__all__ = ["RankCounters", "TrafficLog"]


@dataclasses.dataclass
class RankCounters:
    """Counters for a single simulated rank."""

    flops: float = 0.0
    sparse_flops: float = 0.0
    bytes_sent: float = 0.0
    bytes_received: float = 0.0
    messages_sent: int = 0
    messages_received: int = 0

    @property
    def total_flops(self) -> float:
        """Dense plus sparse floating-point operations."""
        return self.flops + self.sparse_flops

    @property
    def total_bytes(self) -> float:
        """Bytes sent plus received."""
        return self.bytes_sent + self.bytes_received

    def merge(self, other: "RankCounters") -> None:
        """Accumulate another counter set into this one."""
        self.flops += other.flops
        self.sparse_flops += other.sparse_flops
        self.bytes_sent += other.bytes_sent
        self.bytes_received += other.bytes_received
        self.messages_sent += other.messages_sent
        self.messages_received += other.messages_received


class TrafficLog:
    """Per-rank accounting for a simulated run.

    Parameters
    ----------
    n_ranks:
        Number of simulated MPI ranks.
    """

    def __init__(self, n_ranks: int):
        if n_ranks < 1:
            raise ValueError("n_ranks must be at least 1")
        self.n_ranks = int(n_ranks)
        self.ranks: List[RankCounters] = [RankCounters() for _ in range(self.n_ranks)]

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_flops(self, rank: int, flops: float, sparse: bool = False) -> None:
        """Record ``flops`` floating-point operations performed by ``rank``.

        ``sparse=True`` marks operations performed on small/sparse blocks,
        which the machine model executes at a lower efficiency than large
        dense operations (this is the core performance argument of the
        paper: the submatrix method converts sparse work into dense work).
        """
        self._check_rank(rank)
        if flops < 0:
            raise ValueError("flops must be non-negative")
        if sparse:
            self.ranks[rank].sparse_flops += flops
        else:
            self.ranks[rank].flops += flops

    def record_message(self, source: int, destination: int, nbytes: float) -> None:
        """Record a point-to-point message of ``nbytes`` bytes."""
        self._check_rank(source)
        self._check_rank(destination)
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if source == destination:
            return  # local copies are free
        self.ranks[source].bytes_sent += nbytes
        self.ranks[source].messages_sent += 1
        self.ranks[destination].bytes_received += nbytes
        self.ranks[destination].messages_received += 1

    def record_message_matrix(self, matrix) -> None:
        """Record a full (source, destination) byte matrix of messages.

        ``matrix[s, d]`` is the point-to-point volume from rank ``s`` to rank
        ``d``; zero entries and the diagonal are skipped.  This is how the
        transfer plans (fetch and write-back matrices of
        :class:`repro.core.transfers.TransferPlan`) enter the log.
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (self.n_ranks, self.n_ranks):
            raise ValueError(
                f"message matrix must have shape {(self.n_ranks, self.n_ranks)}"
            )
        if np.any(matrix < 0):
            raise ValueError("message volumes must be non-negative")
        off_diagonal = matrix.copy()
        np.fill_diagonal(off_diagonal, 0.0)
        for source, destination in zip(*np.nonzero(off_diagonal)):
            self.record_message(
                int(source), int(destination), float(matrix[source, destination])
            )

    def record_allgather(self, nbytes_per_rank: float) -> None:
        """Record an allgather where each rank contributes ``nbytes_per_rank``.

        Modelled as a ring allgather: each rank sends and receives
        (P-1) * nbytes_per_rank in P-1 messages.
        """
        if self.n_ranks == 1:
            return
        for rank in range(self.n_ranks):
            neighbor = (rank + 1) % self.n_ranks
            for _ in range(self.n_ranks - 1):
                self.record_message(rank, neighbor, nbytes_per_rank)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def total_flops(self) -> float:
        """Total floating-point operations across all ranks."""
        return sum(r.total_flops for r in self.ranks)

    def total_bytes_sent(self) -> float:
        """Total bytes sent across all ranks."""
        return sum(r.bytes_sent for r in self.ranks)

    def max_flops(self) -> float:
        """Largest per-rank FLOP count (critical path of compute)."""
        return max(r.total_flops for r in self.ranks)

    def flop_imbalance(self) -> float:
        """Ratio of max to mean per-rank FLOPs (1.0 = perfectly balanced)."""
        total = self.total_flops()
        if total == 0:
            return 1.0
        mean = total / self.n_ranks
        return self.max_flops() / mean

    def merge(self, other: "TrafficLog") -> None:
        """Accumulate another log (same rank count) into this one."""
        if other.n_ranks != self.n_ranks:
            raise ValueError("cannot merge logs with different rank counts")
        for mine, theirs in zip(self.ranks, other.ranks):
            mine.merge(theirs)

    def per_rank(self) -> Iterable[RankCounters]:
        """Iterate over per-rank counters."""
        return iter(self.ranks)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise IndexError(f"rank {rank} out of range for {self.n_ranks} ranks")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrafficLog(n_ranks={self.n_ranks}, total_flops={self.total_flops():.3e}, "
            f"total_bytes={self.total_bytes_sent():.3e})"
        )
