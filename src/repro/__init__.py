"""repro — reproduction of the submatrix method for approximate matrix function
evaluation in linear-scaling DFT (Lass, Schade, Kühne, Plessl; SC 2020).

The package is organised into substrates, the core contribution, and a
unified session API on top:

``repro.api``
    The session API: :class:`~repro.api.config.EngineConfig` (one validated
    configuration for engine, backend, workers, bucket padding, balancing,
    ranks and filtering), the :class:`~repro.signfn.registry.MatrixFunction`
    kernel registry, and :class:`~repro.api.context.SubmatrixContext` — the
    one entry point: the session that owns the plan cache, the persistent
    worker pool and the sharded pipelines, exposing ``apply`` / ``density``
    / ``observables`` / ``trajectory`` (each single-process or, with
    ``ranks=``, sharded over simulated ranks).
``repro.chem``
    Synthetic liquid-water systems, model Kohn–Sham / overlap matrix builders,
    Löwdin orthogonalization and dense reference density-matrix solvers.
``repro.dbcsr``
    A block-compressed sparse matrix library modelled after CP2K's libDBCSR,
    including a 2D process-grid distribution and a Cannon-style distributed
    multiplication.
``repro.parallel``
    A simulated communicator with traffic accounting, a machine model used to
    convert FLOP/byte counts into simulated wall-clock times, and thread/process
    executors for genuinely parallel submatrix solves.
``repro.signfn``
    Matrix sign function algorithms (Newton–Schulz, higher-order Padé,
    eigendecomposition-based), inverse p-th roots, and the named-kernel
    registry behind every solver string.
``repro.clustering``
    k-means and graph partitioning used to combine block columns into
    submatrices.
``repro.core``
    The submatrix method itself: submatrix extraction and result scatter-back,
    column grouping, block-transfer planning, load balancing, the one rank
    loop that executes single-process and sharded runs alike, and the
    distributed run cost model.
``repro.accel``
    The paper's Sec. VI accelerator study: emulated FP16/FP16'/FP32
    tensor-core sign iterations and a GPU/FPGA performance model.  The
    engine itself computes in float64 NumPy only.
``repro.serve``
    Density-as-a-service: a multi-tenant in-process server pooling session
    contexts over one shared plan cache, running every request as one
    session call on a thread pool, with admission control and per-tenant
    metrics.
``repro.analysis``
    Sparsity statistics and evaluation metrics.

The most convenient entry point is the session API, re-exported here:

>>> import repro
>>> ctx = repro.SubmatrixContext(repro.EngineConfig(backend="thread"))
>>> result = ctx.apply(matrix, "eigen", mu=0.2)              # doctest: +SKIP
"""

from repro.version import __version__
from repro.api import (
    BoundKernel,
    EngineConfig,
    MatrixFunction,
    SubmatrixContext,
    SubmatrixDFTResult,
    SubmatrixMethodResult,
    TrajectoryCheckpoint,
    TrajectoryResult,
    TrajectoryStats,
    UnknownKernelError,
    available_kernels,
    get_kernel,
    register_callable,
    register_kernel,
    resolve_kernel,
)
from repro.serve import (
    AdmissionPolicy,
    DensityService,
    ServiceOverloadError,
)

__all__ = [
    "AdmissionPolicy",
    "DensityService",
    "ServiceOverloadError",
    "__version__",
    "EngineConfig",
    "SubmatrixContext",
    "SubmatrixMethodResult",
    "SubmatrixDFTResult",
    "TrajectoryCheckpoint",
    "TrajectoryResult",
    "TrajectoryStats",
    "MatrixFunction",
    "BoundKernel",
    "UnknownKernelError",
    "register_kernel",
    "register_callable",
    "get_kernel",
    "available_kernels",
    "resolve_kernel",
]
