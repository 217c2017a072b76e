"""The rank loop, and the sharded run's model beside its execution.

The paper's scaling experiments (Figs. 6, 8, 9, 10) ran on 40–1280 cores.
This reproduction executes the numerics inside one process, but models the
*work and traffic distribution across ranks* — which is what determines the
scaling behaviour — exactly, from the block-sparsity pattern.

The **model** sees no values and builds no extraction plan and no shard;
its FLOPs and imbalance come from :mod:`repro.work`, and the machine model
(:class:`repro.parallel.machine.MachineModel`) turns them into seconds:

* :class:`DistributedSubmatrixModel` fixes the submatrix→rank assignment
  (one consecutive chunk per rank, chosen greedily by c·n³ cost) and the
  deduplicated whole-block initialization exchange
  (:func:`~repro.core.transfers.plan_transfers`);
  :func:`submatrix_method_cost` is its cost on a machine;
* :func:`newton_schulz_cost` models the **Newton–Schulz baseline**: every
  iteration performs two sparse block multiplications whose FLOPs follow
  from the (filtered) block pattern and whose traffic follows from
  libDBCSR's Cannon algorithm (each rank ships its panels √P times per
  multiplication).

The **execution**:

* :func:`run_stacks` is the one rank loop of the paper's algorithm (Sec. IV,
  IV-E): every rank takes its chunk of submatrices, stacks them by exact
  dimension, solves and scatters.  A single process is P = 1 of it — one
  unit, the whole plan.  Every f(A) and every density goes through it;
* :class:`DistributedSubmatrixPipeline` executes a model: it adds the
  extraction plan and its rank shards (:class:`~repro.core.shard.ShardedPlan`)
  that :func:`run_stacks` runs, bitwise identical to the single-process unit
  for any rank count (scatter ranges are disjoint across ranks and every
  submatrix sees the same dense values).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.core.batch import make_stack_tasks, map_stacks
from repro.core.combination import ColumnGrouping, single_column_groups
from repro.core.load_balance import assign_consecutive_chunks
from repro.core.plan import BlockSubmatrixPlan, PlanCache, SubmatrixPlan, block_plan
from repro.core.shard import ShardedPlan
from repro.core.transfers import TransferPlan, plan_transfers
from repro.dbcsr.coo import CooBlockList
from repro.dbcsr.distribution import BlockDistribution, ProcessGrid2D
from repro.parallel.machine import MachineModel, SimulatedTime
from repro.parallel.stats import TrafficLog
from repro.parallel.topology import balanced_dims
from repro.work import block_multiply_flops, submatrix_flop_costs

__all__ = [
    "DistributedSubmatrixModel",
    "DistributedSubmatrixPipeline",
    "run_stacks",
    "SubmatrixRunCost",
    "submatrix_method_cost",
    "newton_schulz_cost",
    "estimate_newton_schulz_iterations",
]

PatternLike = Union[sp.spmatrix, CooBlockList]

#: ``mapper(function, items) -> list``: how a session dispatches independent
#: tasks (its persistent executor); the default is a serial loop.
Mapper = Callable[[Callable, Sequence], list]


def _map_serial(function: Callable, items: Sequence) -> list:
    return [function(item) for item in items]


@dataclasses.dataclass
class SubmatrixRunCost:
    """Cost summary of one simulated distributed run."""

    method: str
    n_ranks: int
    traffic: TrafficLog
    simulated: SimulatedTime
    total_flops: float
    total_comm_bytes: float
    details: Dict[str, float]


def _as_coo(pattern: PatternLike) -> CooBlockList:
    if isinstance(pattern, CooBlockList):
        return pattern
    return CooBlockList.from_pattern(pattern)


class DistributedSubmatrixModel:
    """The cost side of a sharded submatrix run: no values, no plan, no shard.

    Fixed once per (pattern, grouping, rank count): the submatrix→rank
    assignment — the paper's greedy consecutive chunks over c·n³ costs
    (Sec. IV-E, maximises block reuse) — with every rank's FLOPs, and the
    transfer plan of the initialization exchange, whose deduplicated
    whole-block volume is what every shard of an executed run packs.
    :meth:`traffic_log` and :meth:`cost` hand them to the machine model.

    Parameters
    ----------
    pattern:
        Block-sparsity pattern (SciPy pattern matrix or COO block list).
    block_sizes:
        Basis functions per block column.
    n_ranks:
        Number of simulated ranks.
    grouping:
        Block-column grouping (default: one submatrix per block column).
    exact_transfers:
        ``True`` (default) plans deduplicated transfers per submatrix:
        exactly the remote blocks each rank's shard packs.  ``False`` uses
        the fast pattern-level planning, which over-estimates them —
        preferred for very large cost sweeps.

    Blocks are owned round-robin over a near-square process grid, like
    DBCSR's default distribution; a matrix element is 8 bytes (float64).
    """

    def __init__(
        self,
        pattern: PatternLike,
        block_sizes: Sequence[int],
        n_ranks: int,
        grouping: Optional[ColumnGrouping] = None,
        exact_transfers: bool = True,
    ):
        if n_ranks < 1:
            raise ValueError("n_ranks must be positive")
        self.coo = _as_coo(pattern)
        self.block_sizes = np.asarray(list(block_sizes), dtype=int)
        self.n_ranks = int(n_ranks)
        n_blocks = self.coo.n_block_cols
        self.grouping = grouping or single_column_groups(n_blocks)
        grid = ProcessGrid2D(n_ranks, balanced_dims(n_ranks))
        self.distribution = BlockDistribution(n_blocks, n_blocks, grid)

        self.dimensions = self.grouping.submatrix_dimensions(
            self.coo, self.block_sizes
        )
        self.costs = submatrix_flop_costs(self.dimensions)
        self.rank_of_group = np.zeros(self.grouping.n_submatrices, dtype=int)
        for rank, (start, stop) in enumerate(
            assign_consecutive_chunks(self.costs, self.n_ranks)
        ):
            self.rank_of_group[start:stop] = rank
        self.rank_flops = np.zeros(self.n_ranks)
        np.add.at(self.rank_flops, self.rank_of_group, self.costs)
        self.transfer_plan: TransferPlan = plan_transfers(
            self.coo,
            self.block_sizes,
            self.distribution,
            self.grouping,
            self.rank_of_group,
            per_group_dedup=bool(exact_transfers),
        )

    def traffic_log(self) -> TrafficLog:
        """Work and traffic of one run, per rank.

        The initialization exchange is charged at the transfer plan's fetch
        volume (with the COO allgather), and every rank's assigned submatrix
        solves as dense FLOPs.
        """
        log = self.transfer_plan.to_traffic_log(coo_length=len(self.coo))
        for rank in range(self.n_ranks):
            log.record_flops(rank, float(self.rank_flops[rank]), sparse=False)
        return log

    def cost(self, machine: MachineModel) -> SubmatrixRunCost:
        """Simulated run cost on ``machine``, one core per rank (the paper's
        submatrix runs, Sec. V)."""
        log = self.traffic_log()
        plan = self.transfer_plan
        dimensions = self.dimensions
        details: Dict[str, float] = {
            "n_submatrices": float(self.grouping.n_submatrices),
            "max_submatrix_dimension": float(max(dimensions) if dimensions else 0),
            "mean_submatrix_dimension": float(
                np.mean(dimensions) if dimensions else 0
            ),
            "dedup_savings": plan.deduplication_savings,
            "fetch_bytes": plan.total_fetch_bytes,
            "writeback_bytes": plan.total_writeback_bytes,
            "flop_imbalance": log.flop_imbalance(),
        }
        return SubmatrixRunCost(
            method="submatrix",
            n_ranks=self.n_ranks,
            traffic=log,
            simulated=machine.simulate(log),
            total_flops=log.total_flops(),
            total_comm_bytes=log.total_bytes_sent(),
            details=details,
        )


class DistributedSubmatrixPipeline(DistributedSubmatrixModel):
    """Rank-sharded execution of a :class:`DistributedSubmatrixModel`.

    On the first :meth:`prepare` the pipeline builds the extraction plan
    (through ``plan_cache``, if given) and its sharded form: per rank, the
    gather/scatter arrays of its own groups re-based onto a rank-local
    buffer of exactly the blocks the exact transfer plan fetches.  The other
    parameters are the model's.
    """

    def __init__(
        self,
        pattern: PatternLike,
        block_sizes: Sequence[int],
        n_ranks: int,
        grouping: Optional[ColumnGrouping] = None,
        plan_cache: Optional[PlanCache] = None,
    ):
        super().__init__(pattern, block_sizes, n_ranks, grouping)
        self.plan_cache = plan_cache
        self.plan: Optional[BlockSubmatrixPlan] = None
        self.sharded: Optional[ShardedPlan] = None

    def prepare(self):
        """Build (or fetch) the extraction plan and sharded plan, once.

        Returns ``(plan, sharded)`` — what :func:`run_stacks` executes and
        what the caller packs the input values with.
        """
        if self.sharded is None:
            self.plan = block_plan(
                self.coo,
                self.block_sizes,
                self.grouping.groups,
                cache=self.plan_cache,
            )
            self.sharded = ShardedPlan(self.plan, self.rank_of_group, self.n_ranks)
        return self.plan, self.sharded

    def execute_ranks(
        self, run_rank: Callable[[int], object], mapper: Optional[Mapper] = None
    ) -> List[object]:
        """Run ``run_rank`` once per rank; ``mapper(function, ranks)``
        dispatches the rank tasks (default: a serial loop).  A failing rank
        raises through the mapper (``map_parallel`` wraps it in a
        :class:`~repro.parallel.executor.TaskExecutionError` naming the
        rank)."""
        return (mapper or _map_serial)(run_rank, range(self.n_ranks))


def run_stacks(
    plan: SubmatrixPlan,
    packed: np.ndarray,
    solve_stack: Callable[[np.ndarray], Any],
    out: Optional[np.ndarray] = None,
    *,
    pipeline: Optional[DistributedSubmatrixPipeline] = None,
    mapper: Optional[Mapper] = None,
) -> List[Tuple[Sequence[int], Any]]:
    """The one rank loop: stack every rank's submatrices, solve, deliver.

    A *unit* is what one rank executes: a plan view, its packed values and
    its bucketed stack tasks, run through the bucket loop
    (:func:`~repro.core.batch.map_stacks`).  Without a ``pipeline`` there is
    one unit — the whole ``plan`` with ``packed`` — and ``mapper`` spreads
    its stacks over the workers.  With a ``pipeline`` (whose plan ``plan``
    must be) there is one unit per rank shard — the rank-local buffer
    gathered from ``packed`` is the modelled initialization fetch — and
    ``mapper`` spreads the ranks
    (:meth:`DistributedSubmatrixPipeline.execute_ranks`).  Both routes are
    bitwise identical: the solver works per matrix, independent of stack
    composition, and the units write disjoint scatter ranges that together
    cover exactly what the single unit writes.

    Returns one ``(group_indices, value)`` pair per solved stack,
    ``group_indices`` being the *global* plan group of each stack slot.
    Without ``out`` the values are the solver's return values — e.g. the
    ``(eigenvalues, eigenvectors)`` of ``numpy.linalg.eigh``.  With ``out``
    (``plan.new_output()``) every solved stack is delivered into it inside
    its task — whole matrices or generating-column panels, see
    :func:`~repro.core.batch.map_stacks` — and the values are ``None``.
    """

    def run_unit(view, buffer, tasks, group_indices=None, stack_mapper=None):
        solved = map_stacks(
            view,
            buffer,
            tasks,
            solve_stack,
            out=out,
            mapper=stack_mapper,
        )
        return [
            (
                task.members if group_indices is None else group_indices[task.members],
                value,
            )
            for task, value in zip(tasks, solved)
        ]

    if pipeline is not None:
        shards = pipeline.prepare()[1].shards

        def run_rank(rank: int):
            shard = shards[rank]
            if shard.n_groups == 0:
                return []
            return run_unit(
                shard.view,
                shard.pack_local(packed),
                shard.stack_tasks(),
                shard.group_indices,
            )

        per_rank = pipeline.execute_ranks(run_rank, mapper)
        return [pair for pairs in per_rank for pair in pairs]
    return run_unit(
        plan,
        packed,
        make_stack_tasks(plan.dimensions),
        stack_mapper=mapper,
    )


def submatrix_method_cost(
    pattern: PatternLike,
    block_sizes: Sequence[int],
    n_ranks: int,
    machine: MachineModel,
    grouping: Optional[ColumnGrouping] = None,
    exact_transfers: bool = True,
) -> SubmatrixRunCost:
    """Cost of a distributed submatrix-method sign evaluation on ``machine``.

    ``DistributedSubmatrixModel(...).cost(machine)``: the work and traffic of
    an executed pipeline (same assignment, same transfer plan, same per-rank
    FLOPs) without the numerics.  ``pattern`` is the block pattern of the
    filtered, orthogonalized Kohn–Sham matrix and ``n_ranks`` counts MPI
    ranks, one per core as in the paper's submatrix runs (Sec. V); the other
    parameters are the model's.
    """
    model = DistributedSubmatrixModel(
        pattern, block_sizes, n_ranks, grouping=grouping, exact_transfers=exact_transfers
    )
    return model.cost(machine)


def estimate_newton_schulz_iterations(eps_filter: float, base_iterations: int = 14) -> int:
    """Heuristic iteration count of the Newton–Schulz purification.

    The quadratically convergent iteration needs a few extra steps to push
    the residual below a tighter filter/convergence threshold (CP2K couples
    the convergence criterion to ``eps_filter``, Sec. V-A).  The heuristic
    adds one iteration per two orders of magnitude of requested accuracy on
    top of a base count measured on the reproduction's water systems.
    """
    if eps_filter <= 0:
        raise ValueError("eps_filter must be positive")
    extra = max(0.0, -math.log10(eps_filter) - 4.0) / 2.0
    return int(round(base_iterations + extra))


#: Cores per rank of the Newton–Schulz baseline's model: the paper runs it
#: as 8 ranks × 5 threads per node (the submatrix method: one rank per core).
NEWTON_SCHULZ_CORES_PER_RANK = 5


def newton_schulz_cost(
    pattern: PatternLike,
    block_sizes: Sequence[int],
    n_ranks: int,
    machine: MachineModel,
    n_iterations: int = 20,
) -> SubmatrixRunCost:
    """Cost of the distributed 2nd-order Newton–Schulz baseline.

    Parameters
    ----------
    pattern:
        Block-sparsity pattern of the filtered orthogonalized Kohn–Sham
        matrix.
    block_sizes:
        Basis functions per block.
    n_ranks:
        Number of MPI ranks, each of :data:`NEWTON_SCHULZ_CORES_PER_RANK`
        cores.
    machine:
        Machine model.
    n_iterations:
        Number of Newton–Schulz iterations (use
        :func:`estimate_newton_schulz_iterations` or a measured count).

    The fill-in of the iterate is modelled: the steady-state pattern of X_k
    is approximated by the boolean square of the input pattern plus the
    pattern itself (the filtered density-matrix pattern is denser than the
    Hamiltonian's).
    """
    coo = _as_coo(pattern)
    block_sizes = np.asarray(list(block_sizes), dtype=float)
    base = coo.to_pattern().astype(bool)
    iterate_pattern = ((base @ base) + base).astype(bool)
    multiply_flops = block_multiply_flops(iterate_pattern, block_sizes)
    # one iteration: X² and X·(3I − X²)  ->  two multiplications
    total_flops = 2.0 * multiply_flops * n_iterations

    # matrix volume of the iterate (bytes of all stored blocks)
    pattern_coo = iterate_pattern.tocoo()
    matrix_bytes = float(
        np.sum(block_sizes[pattern_coo.row] * block_sizes[pattern_coo.col]) * 8.0
    )

    log = TrafficLog(n_ranks)
    flops_per_rank = total_flops / n_ranks
    grid_p = max(1, int(round(math.sqrt(n_ranks))))
    local_bytes = matrix_bytes / n_ranks
    # Cannon: per multiplication every rank ships its A and B panels √P times
    bytes_per_rank_per_multiply = 2.0 * grid_p * local_bytes
    messages_per_rank_per_multiply = 2 * grid_p
    multiplications = 2 * n_iterations
    for rank in range(n_ranks):
        log.record_flops(rank, flops_per_rank, sparse=True)
        if n_ranks > 1:
            neighbor = (rank + 1) % n_ranks
            total_bytes = bytes_per_rank_per_multiply * multiplications
            total_messages = messages_per_rank_per_multiply * multiplications
            log.ranks[rank].bytes_sent += total_bytes
            log.ranks[rank].messages_sent += total_messages
            log.ranks[neighbor].bytes_received += total_bytes
            log.ranks[neighbor].messages_received += total_messages

    simulated = machine.simulate(log, cores_per_rank=NEWTON_SCHULZ_CORES_PER_RANK)
    return SubmatrixRunCost(
        method="newton_schulz",
        n_ranks=n_ranks,
        traffic=log,
        simulated=simulated,
        total_flops=total_flops,
        total_comm_bytes=log.total_bytes_sent(),
        details={
            "n_iterations": float(n_iterations),
            "multiply_flops": multiply_flops,
            "matrix_bytes": matrix_bytes,
            "grid_p": float(grid_p),
        },
    )
