"""The rank loop, the distributed submatrix pipeline and run cost models.

The paper's scaling experiments (Figs. 6, 8, 9, 10) ran on 40–1280 cores.
This reproduction executes the numerics inside one process, but models the
*work and traffic distribution across ranks* — which is what determines the
scaling behaviour — exactly, from the block-sparsity pattern.

* :func:`run_stacks` is the one rank loop of the paper's algorithm (Sec. IV,
  IV-E): every rank takes its chunk of submatrices, stacks them, solves and
  scatters.  A single process is P = 1 of it — one unit, the whole plan.
  Every f(A) and every density goes through it.
* :class:`DistributedSubmatrixPipeline` fixes what a sharded run needs
  before any value is seen: the submatrix→rank assignment, the sharded
  extraction plan (:class:`~repro.core.shard.ShardedPlan`) and the
  packed-segment initialization exchange
  (:func:`~repro.core.transfers.plan_transfers`).  Results are bitwise
  identical to the single-process unit for any rank count (scatter ranges
  are disjoint across ranks and every submatrix sees the same dense values).
* :func:`submatrix_method_cost` is a thin wrapper over that pipeline: it
  builds the same assignment, transfer plan and
  :class:`~repro.parallel.stats.TrafficLog` the execution path uses and
  feeds them to the machine model — no separate standalone cost formula.
* for the **Newton–Schulz baseline**, :func:`newton_schulz_cost` keeps the
  analytic model: every iteration performs two sparse block multiplications
  whose FLOPs follow from the (filtered) block pattern and whose traffic
  follows from libDBCSR's Cannon algorithm (each rank ships its panels √P
  times per multiplication).

The machine model (:class:`repro.parallel.machine.MachineModel`) converts
both into simulated wall-clock times.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.api.config import BALANCE_STRATEGIES, EIGENSOLVE_FLOP_CONSTANT
from repro.core.batch import make_stack_tasks, map_stacks
from repro.core.combination import ColumnGrouping, single_column_groups
from repro.core.load_balance import (
    assign_balanced_stacks,
    assign_consecutive_chunks,
    pad_dimensions,
    resolve_bucket_pad,
    submatrix_flop_costs,
)
from repro.core.plan import (
    BlockSubmatrixPlan,
    PlanCache,
    SubmatrixPlan,
    block_plan,
    block_run,
)
from repro.core.shard import ShardedPlan
from repro.core.transfers import TransferPlan, plan_transfers
from repro.dbcsr.coo import CooBlockList
from repro.dbcsr.distribution import BlockDistribution, ProcessGrid2D
from repro.parallel.machine import MachineModel, SimulatedTime
from repro.parallel.stats import TrafficLog
from repro.parallel.topology import balanced_dims

__all__ = [
    "DistributedSubmatrixPipeline",
    "run_stacks",
    "SubmatrixRunCost",
    "submatrix_method_cost",
    "newton_schulz_cost",
    "estimate_newton_schulz_iterations",
    "EIGENSOLVE_FLOP_CONSTANT",
    "BALANCE_STRATEGIES",
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

    @property
    def simulated_seconds(self) -> float:
        """Total simulated wall-clock time."""
        return self.simulated.total


def _as_coo(pattern: PatternLike) -> CooBlockList:
    if isinstance(pattern, CooBlockList):
        return pattern
    return CooBlockList.from_pattern(pattern)


class DistributedSubmatrixPipeline:
    """Rank-sharded execution of the submatrix method through the plan engine.

    The pipeline fixes, once per (pattern, grouping, rank count):

    1. the submatrix→rank assignment (``balance=`` strategy),
    2. the sharded extraction plan — per rank, the gather/scatter arrays of
       its own groups re-based onto a rank-local packed buffer,
    3. the transfer plan of the initialization exchange, reporting both
       whole-block and packed-segment volumes.

    :func:`run_stacks` evaluates on actual values through it (bitwise
    identical to the single-process unit), while :meth:`traffic_log` /
    :meth:`cost` expose the same execution's work and traffic distribution
    to the machine model without running numerics — which is all
    :func:`submatrix_method_cost` does.

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
    distribution:
        Block ownership; defaults to a round-robin distribution over a
        near-square process grid, like DBCSR's default.
    balance:
        ``"chunks"`` (default) — the paper's greedy consecutive chunks over
        c·n³ costs (Sec. IV-E, maximises block reuse);
        ``"stacks"`` — bucket-aware: groups are bucketed by (padded)
        dimension exactly as the batched evaluator will execute them and
        whole stacks are balanced over ranks with an LPT heuristic.
    bucket_pad:
        Padding granularity of the batched evaluator: an integer, ``None``
        (exact-dimension buckets, keeps results bitwise identical) or
        ``"auto"`` (chosen from the dimension histogram via
        :func:`repro.core.load_balance.choose_bucket_pad`).
    flop_constant:
        Cost of the per-submatrix solve as a multiple of n³.
    plan_cache:
        Optional plan cache for the extraction plan (built uncached
        without one).
    exact_transfers:
        ``True`` (default) builds the sharded plan eagerly and plans
        per-submatrix deduplicated transfers including packed-segment
        volumes.  ``False`` defers the sharded plan until :meth:`prepare` and
        uses the fast pattern-level transfer planning — preferred for very
        large cost sweeps.
    bytes_per_element:
        Storage size of a matrix element (8 for float64).
    """

    def __init__(
        self,
        pattern: PatternLike,
        block_sizes: Sequence[int],
        n_ranks: int,
        grouping: Optional[ColumnGrouping] = None,
        distribution: Optional[BlockDistribution] = None,
        balance: str = "chunks",
        bucket_pad: Optional[Union[int, str]] = None,
        flop_constant: float = EIGENSOLVE_FLOP_CONSTANT,
        plan_cache: Optional[PlanCache] = None,
        exact_transfers: bool = True,
        bytes_per_element: int = 8,
    ):
        if n_ranks < 1:
            raise ValueError("n_ranks must be positive")
        if balance not in BALANCE_STRATEGIES:
            raise ValueError(f"balance must be one of {BALANCE_STRATEGIES}")
        self.coo = _as_coo(pattern)
        self.block_sizes = np.asarray(list(block_sizes), dtype=int)
        self.n_ranks = int(n_ranks)
        n_blocks = self.coo.n_block_cols
        self.grouping = grouping or single_column_groups(n_blocks)
        if distribution is None:
            grid = ProcessGrid2D(n_ranks, balanced_dims(n_ranks))
            distribution = BlockDistribution(n_blocks, n_blocks, grid)
        if distribution.n_ranks != self.n_ranks:
            raise ValueError("distribution rank count does not match n_ranks")
        self.distribution = distribution
        self.balance = balance
        self.flop_constant = float(flop_constant)
        self.plan_cache = plan_cache
        self.bytes_per_element = int(bytes_per_element)

        self.dimensions = self.grouping.submatrix_dimensions(
            self.coo, self.block_sizes
        )
        self.bucket_pad = resolve_bucket_pad(
            bucket_pad, self.dimensions, block_run(self.block_sizes)
        )
        self.costs = submatrix_flop_costs(self.dimensions, self.flop_constant)
        self.rank_of_group = self._assign_ranks()
        self.rank_flops = np.zeros(self.n_ranks)
        np.add.at(self.rank_flops, self.rank_of_group, self._executed_costs())

        self.plan: Optional[BlockSubmatrixPlan] = None
        self.sharded: Optional[ShardedPlan] = None
        self._exact_transfers = bool(exact_transfers)
        # Cost-model side planning needs no extraction plan: with exact
        # per-group planning, the required-block sets *are* the shard's
        # segment index (a shard references exactly the blocks of its
        # submatrices' retained sub-patterns), so the packed-segment volumes
        # come for free.  The extraction plan and shards are built lazily on
        # the first prepare().
        self.transfer_plan: TransferPlan = plan_transfers(
            self.coo,
            self.block_sizes,
            self.distribution,
            self.grouping,
            self.rank_of_group,
            bytes_per_element=self.bytes_per_element,
            per_group_dedup=self._exact_transfers,
            segment_index="required" if self._exact_transfers else None,
        )

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def _assign_ranks(self) -> np.ndarray:
        n_groups = self.grouping.n_submatrices
        rank_of_group = np.zeros(n_groups, dtype=int)
        if self.balance == "chunks":
            for rank, (start, stop) in enumerate(
                assign_consecutive_chunks(self.costs, self.n_ranks)
            ):
                rank_of_group[start:stop] = rank
        else:  # "stacks": balance whole padded-dimension stacks (LPT)
            padded = pad_dimensions(self.dimensions, self.bucket_pad)
            # split large buckets into enough indivisible stack tasks that
            # the LPT heuristic has room to balance (~4 stacks per rank),
            # while never splitting below one full stack slot
            total_elements = int(np.sum(padded.astype(np.int64) ** 2))
            cap = max(
                int(padded.max()) ** 2 if padded.size else 1,
                total_elements // max(1, 4 * self.n_ranks),
            )
            stacks = make_stack_tasks(
                self.dimensions, pad_to=self.bucket_pad, max_batch_elements=cap
            )
            stack_costs = [
                self.flop_constant * len(stack.members) * float(stack.dimension) ** 3
                for stack in stacks
            ]
            for rank, stack_ids in enumerate(
                assign_balanced_stacks(stack_costs, self.n_ranks)
            ):
                for stack_id in stack_ids:
                    rank_of_group[stacks[stack_id].members] = rank
        return rank_of_group

    def _executed_costs(self) -> np.ndarray:
        """Per-group FLOPs the batched evaluator will actually execute.

        With bucket padding a group of dimension d runs inside a stack of
        dimension pad(d) ≥ d, so the executed (and balanced, and logged)
        cost is c·pad(d)³ rather than c·d³.
        """
        if self.bucket_pad is None:
            return self.costs
        return submatrix_flop_costs(
            pad_dimensions(self.dimensions, self.bucket_pad), self.flop_constant
        )

    def prepare(self):
        """Build (or fetch) the extraction plan and sharded plan eagerly.

        Returns ``(plan, sharded)`` — what :func:`run_stacks` executes and
        what the caller packs the input values with.
        """
        self._ensure_execution()
        assert self.plan is not None and self.sharded is not None
        return self.plan, self.sharded

    def _ensure_execution(self) -> None:
        """Build the extraction plan and shards lazily (first use only)."""
        if self.sharded is not None:
            return
        self.plan = block_plan(
            self.coo,
            self.block_sizes,
            self.grouping.groups,
            cache=self.plan_cache,
        )
        self.sharded = ShardedPlan(self.plan, self.rank_of_group, self.n_ranks)
        # in fast-transfer mode, replace the pattern-level segment
        # approximation (none) with the volumes measured on the actual shard
        # gather arrays; exact mode already has the identical index and
        # skips the second (expensive) planning pass
        if not self.transfer_plan.has_segments:
            self.transfer_plan = plan_transfers(
                self.coo,
                self.block_sizes,
                self.distribution,
                self.grouping,
                self.rank_of_group,
                bytes_per_element=self.bytes_per_element,
                per_group_dedup=self._exact_transfers,
                segment_index=self.sharded.required_segments_per_rank(),
            )

    # ------------------------------------------------------------------ #
    # cost-model side
    # ------------------------------------------------------------------ #
    def traffic_log(
        self, include_coo_allgather: bool = True, use_segments: Optional[bool] = None
    ) -> TrafficLog:
        """Work and traffic of one pipeline execution, per rank.

        The initialization exchange is charged at packed-segment granularity
        whenever segment volumes are available (``use_segments=None``), and
        every rank's assigned submatrix solves are charged as dense FLOPs.
        """
        if use_segments is None:
            use_segments = self.transfer_plan.has_segments
        log = self.transfer_plan.to_traffic_log(
            include_coo_allgather=include_coo_allgather,
            coo_length=len(self.coo),
            use_segments=use_segments,
        )
        for rank in range(self.n_ranks):
            log.record_flops(rank, float(self.rank_flops[rank]), sparse=False)
        return log

    def cost(
        self, machine: MachineModel, cores_per_rank: int = 1
    ) -> SubmatrixRunCost:
        """Simulated run cost of this pipeline on ``machine``."""
        log = self.traffic_log()
        simulated = machine.simulate(log, cores_per_rank=cores_per_rank)
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
        if plan.has_segments:
            details["segment_fetch_bytes"] = float(plan.total_segment_fetch_bytes)
            details["segment_savings"] = plan.segment_savings
        if self.bucket_pad is not None:
            details["bucket_pad"] = float(self.bucket_pad)
        return SubmatrixRunCost(
            method="submatrix",
            n_ranks=self.n_ranks,
            traffic=log,
            simulated=simulated,
            total_flops=log.total_flops(),
            total_comm_bytes=log.total_bytes_sent(),
            details=details,
        )

    # ------------------------------------------------------------------ #
    # execution side
    # ------------------------------------------------------------------ #
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
    pad_to: Optional[int] = None,
    pad_value: float = 1.0,
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

    ``pad_to``/``pad_value`` are the bucket padding of every unit (``pad_to``
    must be the pipeline's ``bucket_pad`` when there is one, so the executed
    stacks are the ones it balanced and billed).
    """

    def run_unit(view, buffer, tasks, group_indices=None, stack_mapper=None):
        solved = map_stacks(
            view,
            buffer,
            tasks,
            solve_stack,
            out=out,
            pad_value=pad_value,
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
                shard.stack_tasks(pad_to=pad_to),
                shard.group_indices,
            )

        per_rank = pipeline.execute_ranks(run_rank, mapper)
        return [pair for pairs in per_rank for pair in pairs]
    return run_unit(
        plan,
        packed,
        make_stack_tasks(plan.dimensions, pad_to=pad_to),
        stack_mapper=mapper,
    )


def submatrix_method_cost(
    pattern: PatternLike,
    block_sizes: Sequence[int],
    n_ranks: int,
    machine: MachineModel,
    grouping: Optional[ColumnGrouping] = None,
    flop_constant: float = EIGENSOLVE_FLOP_CONSTANT,
    cores_per_rank: int = 1,
    distribution: Optional[BlockDistribution] = None,
    exact_transfers: bool = True,
    balance: str = "chunks",
    bucket_pad: Optional[Union[int, str]] = None,
) -> SubmatrixRunCost:
    """Cost of a distributed submatrix-method sign evaluation.

    A thin wrapper over :class:`DistributedSubmatrixPipeline`: the work and
    traffic fed to the machine model are exactly those of an actual pipeline
    execution (same assignment, same transfer plan, same per-rank FLOPs) —
    only the numerics are skipped.

    Parameters
    ----------
    pattern:
        Block-sparsity pattern of the (filtered, orthogonalized) Kohn–Sham
        matrix.
    block_sizes:
        Basis functions per block column.
    n_ranks:
        Number of MPI ranks (the paper uses one rank per core for the
        submatrix method, Sec. V).
    machine:
        Machine model used to convert work/traffic into seconds.
    grouping:
        Block-column grouping (default: one submatrix per block column).
    flop_constant:
        Cost of the per-submatrix solve as a multiple of n³.
    cores_per_rank:
        Cores available to each rank (1 in the paper's submatrix runs).
    distribution:
        Block ownership; defaults to a round-robin distribution over a
        near-square process grid, like DBCSR's default.
    exact_transfers:
        ``True`` plans block transfers per submatrix (exact deduplication
        bookkeeping, including packed-segment volumes); ``False`` uses the
        faster pattern-level planning — preferred for very large
        pattern-level cost sweeps.
    balance, bucket_pad:
        Assignment strategy and bucket padding of the pipeline (see
        :class:`DistributedSubmatrixPipeline`).
    """
    pipeline = DistributedSubmatrixPipeline(
        pattern,
        block_sizes,
        n_ranks,
        grouping=grouping,
        distribution=distribution,
        balance=balance,
        bucket_pad=bucket_pad,
        flop_constant=flop_constant,
        exact_transfers=exact_transfers,
    )
    return pipeline.cost(machine, cores_per_rank=cores_per_rank)


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


def newton_schulz_cost(
    pattern: PatternLike,
    block_sizes: Sequence[int],
    n_ranks: int,
    machine: MachineModel,
    n_iterations: int = 20,
    cores_per_rank: int = 5,
    fill_pattern: bool = True,
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
        Number of MPI ranks (the paper uses 8 ranks × 5 threads per node for
        Newton–Schulz, hence the default ``cores_per_rank=5``).
    machine:
        Machine model.
    n_iterations:
        Number of Newton–Schulz iterations (use
        :func:`estimate_newton_schulz_iterations` or a measured count).
    fill_pattern:
        Model the fill-in of the iterate: the steady-state pattern of X_k is
        approximated by the boolean square of the input pattern (the filtered
        density-matrix pattern is denser than the Hamiltonian's).
    """
    coo = _as_coo(pattern)
    block_sizes = np.asarray(list(block_sizes), dtype=float)
    base = coo.to_pattern().astype(bool)
    iterate_pattern = ((base @ base) + base).astype(bool) if fill_pattern else base

    # FLOPs of one block sparse multiply X·Y with X, Y having `iterate_pattern`:
    # sum_k b_k * (sum_i P[i,k] b_i) * (sum_j P[k,j] b_j)
    col_weight = np.asarray(
        iterate_pattern.T.astype(float) @ block_sizes
    ).ravel()  # sum_i P[i,k] b_i
    row_weight = np.asarray(iterate_pattern.astype(float) @ block_sizes).ravel()
    multiply_flops = 2.0 * float(np.sum(block_sizes * col_weight * row_weight))
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

    simulated = machine.simulate(log, cores_per_rank=cores_per_rank)
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
