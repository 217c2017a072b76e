"""The submatrix method (the paper's primary contribution).

Workflow (Fig. 3 of the paper):

1. for each (block) column i of the sparse input matrix a principal
   submatrix a_i is assembled from the rows/columns where column i is
   non-zero (the cached extraction plans of :mod:`repro.core.plan`);
2. the matrix function of interest is evaluated on every dense submatrix
   (the rank loop :func:`repro.core.runner.run_stacks` orchestrates this,
   using the solvers from :mod:`repro.signfn`);
3. the column of f(a_i) that corresponds to column i is copied back into the
   sparse result matrix, preserving the input sparsity pattern.

The hot path is the vectorized submatrix engine — cached extraction plans
(:mod:`repro.core.plan`) plus bucketed batch evaluation
(:mod:`repro.core.batch`).  There is one kind of plan, over block columns: a
SciPy matrix is evaluated as the same grid with 1×1 blocks.  The serial
reference it is tested against — one extraction, one dense evaluation and
one scatter per column group, with per-call Python loops where the engine
uses precomputed single-shot gathers/scatters — lives in
``tests/submatrix_reference.py``; :mod:`repro.core.submatrix` keeps the
block-level helpers the benches use (retained rows, dimension, one dense
submatrix).

On top of this core, the subpackage implements the CP2K-specific machinery
described in Sec. IV of the paper: grouping of block columns into combined
submatrices (:mod:`repro.core.combination`), the paper's greedy
consecutive-chunk load balancing (:mod:`repro.core.load_balance`; every
submatrix is solved at its own dimension), rank-sharding of extraction
plans (:mod:`repro.core.shard`), deduplicated block transfer planning
(:mod:`repro.core.transfers`), and the one rank loop with the distributed
run models and the sharded pipeline that executes them
(:mod:`repro.core.runner`).  Every modeled FLOP count reads
:mod:`repro.work`.  The entry point that drives all of it — f(A),
densities, trajectories — is :class:`repro.api.context.SubmatrixContext`.
"""

from repro.core.submatrix import (
    Submatrix,
    extract_block_submatrix,
    submatrix_dimension,
    submatrix_block_rows,
)
from repro.core.plan import (
    SubmatrixPlan,
    BlockSubmatrixPlan,
    PlanCache,
    block_plan,
)
from repro.core.batch import Bucket, make_buckets, evaluate_batched
from repro.core.combination import (
    ColumnGrouping,
    single_column_groups,
    group_columns_kmeans,
    group_columns_graph,
    group_columns_greedy_chunks,
    estimated_speedup,
)
from repro.core.load_balance import assign_consecutive_chunks, load_imbalance
from repro.core.shard import RankShard, ShardView, ShardedPlan
from repro.core.transfers import TransferPlan, plan_transfers
from repro.core.runner import (
    DistributedSubmatrixModel,
    DistributedSubmatrixPipeline,
    SubmatrixRunCost,
    run_stacks,
    submatrix_method_cost,
    newton_schulz_cost,
    estimate_newton_schulz_iterations,
)
# the one work function of every cost above (Eq. 14)
from repro.work import EIGENSOLVE_FLOP_CONSTANT, submatrix_flop_costs
# the session API's configuration layer (safe to import here: config sits
# below repro.core in the dependency graph)
from repro.api.config import ENGINES, EngineConfig

__all__ = [
    "Submatrix",
    "extract_block_submatrix",
    "submatrix_dimension",
    "submatrix_block_rows",
    "SubmatrixPlan",
    "BlockSubmatrixPlan",
    "PlanCache",
    "block_plan",
    "Bucket",
    "make_buckets",
    "evaluate_batched",
    "ColumnGrouping",
    "single_column_groups",
    "group_columns_kmeans",
    "group_columns_graph",
    "group_columns_greedy_chunks",
    "estimated_speedup",
    "assign_consecutive_chunks",
    "submatrix_flop_costs",
    "load_imbalance",
    "RankShard",
    "ShardView",
    "ShardedPlan",
    "TransferPlan",
    "plan_transfers",
    "DistributedSubmatrixModel",
    "DistributedSubmatrixPipeline",
    "run_stacks",
    "submatrix_method_cost",
    "newton_schulz_cost",
    "estimate_newton_schulz_iterations",
    "SubmatrixRunCost",
    "EIGENSOLVE_FLOP_CONSTANT",
    "ENGINES",
    "EngineConfig",
]
