"""Simulated-parallelism substrate.

The paper evaluates its implementation with MPI on up to 1280 cores of a
Xeon/Omni-Path cluster.  This reproduction executes all algorithms within a
single Python process, but it preserves the *distribution semantics* — which
rank owns which data, who sends how many bytes to whom, how many floating
point operations each rank performs — through the classes in this subpackage:

* :class:`repro.parallel.stats.TrafficLog` — per-rank FLOP/byte/message
  counters,
* :class:`repro.parallel.comm.SimComm` — a simulated communicator with
  point-to-point mailboxes and collective traffic accounting,
* :class:`repro.parallel.topology.CartesianGrid2D` — 2D cartesian rank grids
  as used by libDBCSR's Cannon multiplication,
* :class:`repro.parallel.machine.MachineModel` — converts accounting data
  into simulated wall-clock times for the scaling experiments (Figs. 6,
  8–10),
* :mod:`repro.parallel.executor` — thread pools for genuinely
  parallel execution of the embarrassingly parallel submatrix solves.
"""

from repro.parallel.stats import RankCounters, TrafficLog
from repro.parallel.comm import (
    CommError,
    CommRankError,
    CommRecvError,
    SimComm,
)
from repro.parallel.topology import CartesianGrid2D, balanced_dims
from repro.parallel.machine import MachineModel, SimulatedTime, PAPER_MACHINE
from repro.parallel.executor import (
    TaskExecutionError,
    map_parallel,
    wrap_task_error,
)

__all__ = [
    "RankCounters",
    "TrafficLog",
    "SimComm",
    "CommError",
    "CommRankError",
    "CommRecvError",
    "CartesianGrid2D",
    "balanced_dims",
    "MachineModel",
    "SimulatedTime",
    "PAPER_MACHINE",
    "map_parallel",
    "TaskExecutionError",
    "wrap_task_error",
]
