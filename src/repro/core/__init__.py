"""The submatrix method (the paper's primary contribution).

Workflow (Fig. 3 of the paper):

1. for each (block) column i of the sparse input matrix a principal
   submatrix a_i is assembled from the rows/columns where column i is
   non-zero (:mod:`repro.core.submatrix`);
2. the matrix function of interest is evaluated on every dense submatrix
   (:mod:`repro.core.method` orchestrates this, using the solvers from
   :mod:`repro.signfn`);
3. the column of f(a_i) that corresponds to column i is copied back into the
   sparse result matrix, preserving the input sparsity pattern.

The hot path is the vectorized submatrix engine — cached extraction plans
(:mod:`repro.core.plan`) plus bucketed batch evaluation
(:mod:`repro.core.batch`); the per-submatrix kernels in
:mod:`repro.core.submatrix` are the reference implementation it is tested
against, producing identical results with per-call Python loops where the
engine uses precomputed single-shot gathers/scatters.

On top of this core, the subpackage implements the CP2K-specific machinery
described in Sec. IV of the paper: grouping of block columns into combined
submatrices (:mod:`repro.core.combination`), greedy and bucket-aware load
balancing (:mod:`repro.core.load_balance`), rank-sharding of extraction
plans (:mod:`repro.core.shard`), deduplicated block- and packed-segment
transfer planning (:mod:`repro.core.transfers`), the density-matrix driver
with grand-canonical and canonical ensembles (:mod:`repro.core.sign_dft`)
and the rank-sharded execution pipeline plus distributed run cost models
(:mod:`repro.core.runner`).
"""

from repro.core.submatrix import (
    Submatrix,
    extract_submatrix,
    extract_block_submatrix,
    submatrix_dimension,
    submatrix_block_rows,
)
from repro.core.plan import (
    SubmatrixPlan,
    ElementSubmatrixPlan,
    BlockSubmatrixPlan,
    BlockPatternDelta,
    PlanPatchReport,
    PlanCache,
    DEFAULT_PLAN_CACHE,
    PATCH_DELTA_FRACTION,
    element_plan,
    block_plan,
    block_pattern_delta,
)
from repro.core.batch import Bucket, make_buckets, evaluate_batched
from repro.core.method import SubmatrixMethod, SubmatrixMethodResult
from repro.core.combination import (
    ColumnGrouping,
    single_column_groups,
    group_columns_kmeans,
    group_columns_graph,
    group_columns_greedy_chunks,
    estimated_speedup,
)
from repro.core.load_balance import (
    assign_consecutive_chunks,
    assign_consecutive_chunks_reference,
    assign_round_robin,
    assign_balanced_stacks,
    choose_bucket_pad,
    submatrix_flop_costs,
    load_imbalance,
)
from repro.core.shard import RankShard, ShardView, ShardedPlan
from repro.core.splitting import (
    SplitSolveResult,
    split_submatrix_solve,
    splitting_flop_estimate,
)
from repro.core.transfers import TransferPlan, plan_transfers
from repro.core.sign_dft import SubmatrixDFTSolver, SubmatrixDFTResult
from repro.core.runner import (
    DistributedSubmatrixPipeline,
    PipelineRankReport,
    PipelineResult,
    SubmatrixRunCost,
    submatrix_method_cost,
    newton_schulz_cost,
    estimate_newton_schulz_iterations,
    EIGENSOLVE_FLOP_CONSTANT,
    BALANCE_STRATEGIES,
)
# the session API's configuration layer (safe to import here: config sits
# below the core facades in the dependency graph)
from repro.api.config import ENGINES, EngineConfig

__all__ = [
    "Submatrix",
    "extract_submatrix",
    "extract_block_submatrix",
    "submatrix_dimension",
    "submatrix_block_rows",
    "SubmatrixPlan",
    "ElementSubmatrixPlan",
    "BlockSubmatrixPlan",
    "BlockPatternDelta",
    "PlanPatchReport",
    "PlanCache",
    "DEFAULT_PLAN_CACHE",
    "PATCH_DELTA_FRACTION",
    "element_plan",
    "block_plan",
    "block_pattern_delta",
    "Bucket",
    "make_buckets",
    "evaluate_batched",
    "SubmatrixMethod",
    "SubmatrixMethodResult",
    "ColumnGrouping",
    "single_column_groups",
    "group_columns_kmeans",
    "group_columns_graph",
    "group_columns_greedy_chunks",
    "estimated_speedup",
    "assign_consecutive_chunks",
    "assign_consecutive_chunks_reference",
    "assign_round_robin",
    "assign_balanced_stacks",
    "choose_bucket_pad",
    "submatrix_flop_costs",
    "load_imbalance",
    "RankShard",
    "ShardView",
    "ShardedPlan",
    "SplitSolveResult",
    "split_submatrix_solve",
    "splitting_flop_estimate",
    "TransferPlan",
    "plan_transfers",
    "SubmatrixDFTSolver",
    "SubmatrixDFTResult",
    "DistributedSubmatrixPipeline",
    "PipelineRankReport",
    "PipelineResult",
    "submatrix_method_cost",
    "newton_schulz_cost",
    "estimate_newton_schulz_iterations",
    "SubmatrixRunCost",
    "EIGENSOLVE_FLOP_CONSTANT",
    "BALANCE_STRATEGIES",
    "ENGINES",
    "EngineConfig",
]
