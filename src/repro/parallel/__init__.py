"""Simulated-parallelism substrate.

The paper evaluates its implementation with MPI on up to 1280 cores of a
Xeon/Omni-Path cluster.  This reproduction executes all algorithms within a
single Python process; simulated ranks are closures run by the one rank loop
(:func:`repro.core.runner.run_stacks`), and their traffic is *planned*
(:mod:`repro.core.transfers`), not sent.  This subpackage holds what that
needs:

* :class:`repro.parallel.stats.TrafficLog` — per-rank FLOP/byte/message
  counters, filled from a transfer plan,
* :class:`repro.parallel.topology.CartesianGrid2D` — the 2D cartesian rank
  grid that block ownership is mapped onto,
* :class:`repro.parallel.machine.MachineModel` — converts accounting data
  into simulated wall-clock times for the scaling experiments (Figs. 6,
  8–10),
* :mod:`repro.parallel.executor` — the serial/thread executors that run the
  embarrassingly parallel submatrix solves.
"""

from repro.parallel.stats import RankCounters, TrafficLog
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
    "CartesianGrid2D",
    "balanced_dims",
    "MachineModel",
    "SimulatedTime",
    "PAPER_MACHINE",
    "map_parallel",
    "TaskExecutionError",
    "wrap_task_error",
]
