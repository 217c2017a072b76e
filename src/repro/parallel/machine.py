"""Machine model: converting work/traffic accounting into simulated time.

The paper's scaling experiments (Figs. 6, 8, 9, 10) were measured on compute
nodes with two Intel Xeon Gold 6148 CPUs (40 cores at 2.4 GHz) connected by a
100 Gbps Omni-Path network.  This reproduction cannot measure those times, so
it recomputes them from first principles:

    time(rank) = dense_flops / (cores * dense_rate)
               + sparse_flops / (cores * sparse_rate)
               + bytes / bandwidth + messages * latency
    time(run)  = max over ranks

The distinction between *dense* and *sparse* FLOP rates encodes the paper's
central performance argument: operations on small DBCSR blocks (5–30 rows)
achieve only a small fraction of peak, whereas the large dense submatrix
eigendecompositions/multiplications run near peak.  The default rates are
calibrated so that absolute times land in the same order of magnitude as the
paper's measurements; the *shapes* of the scaling curves depend only on the
work/traffic distributions, which are computed exactly.
"""

from __future__ import annotations

import dataclasses

from repro.parallel.stats import TrafficLog

__all__ = ["MachineModel", "SimulatedTime", "PAPER_MACHINE"]


@dataclasses.dataclass
class SimulatedTime:
    """Breakdown of a simulated run time (seconds)."""

    compute: float
    communication: float

    @property
    def total(self) -> float:
        """Total simulated wall-clock time."""
        return self.compute + self.communication


@dataclasses.dataclass(frozen=True)
class MachineModel:
    """A simple homogeneous-cluster performance model.

    Parameters
    ----------
    dense_flop_rate:
        Sustained FLOP/s per core for large dense kernels (GEMM, syevd).
    sparse_flop_rate:
        Sustained FLOP/s per core for small-block sparse kernels (DBCSR
        multiplications of 5–30-row blocks).
    network_bandwidth:
        Point-to-point bandwidth in bytes/s.
    network_latency:
        Per-message latency in seconds.
    """

    name: str = "2x Xeon Gold 6148 + 100 Gbps Omni-Path"
    dense_flop_rate: float = 35.0e9
    sparse_flop_rate: float = 4.0e9
    network_bandwidth: float = 10.0e9
    network_latency: float = 2.0e-6

    def __post_init__(self) -> None:
        for attr in (
            "dense_flop_rate",
            "sparse_flop_rate",
            "network_bandwidth",
            "network_latency",
        ):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")

    # ------------------------------------------------------------------ #
    # elementary costs
    # ------------------------------------------------------------------ #
    def compute_time(
        self, flops: float, cores: int = 1, sparse: bool = False
    ) -> float:
        """Time (s) to execute ``flops`` on ``cores`` cores."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        rate = self.sparse_flop_rate if sparse else self.dense_flop_rate
        return flops / (max(1, cores) * rate)

    def message_time(self, nbytes: float, messages: int = 1) -> float:
        """Time (s) to transfer ``nbytes`` in ``messages`` messages."""
        if nbytes < 0 or messages < 0:
            raise ValueError("nbytes and messages must be non-negative")
        return messages * self.network_latency + nbytes / self.network_bandwidth

    # ------------------------------------------------------------------ #
    # whole-run simulation
    # ------------------------------------------------------------------ #
    def simulate(self, log: TrafficLog, cores_per_rank: int = 1) -> SimulatedTime:
        """Simulated wall-clock time of a run described by ``log``.

        The run time is the maximum over ranks of per-rank compute time plus
        the maximum over ranks of per-rank communication time (compute and
        communication are assumed not to overlap, which matches the
        bulk-synchronous structure of both the Newton–Schulz baseline and the
        submatrix method's initialization/compute/write-back phases).
        """
        max_compute = 0.0
        max_comm = 0.0
        for counters in log.ranks:
            compute = self.compute_time(counters.flops, cores_per_rank, sparse=False)
            compute += self.compute_time(
                counters.sparse_flops, cores_per_rank, sparse=True
            )
            comm = self.message_time(
                counters.bytes_sent + counters.bytes_received,
                counters.messages_sent + counters.messages_received,
            )
            max_compute = max(max_compute, compute)
            max_comm = max(max_comm, comm)
        return SimulatedTime(compute=max_compute, communication=max_comm)


#: Machine model loosely calibrated to the paper's evaluation platform.
PAPER_MACHINE = MachineModel()
