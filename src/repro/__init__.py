"""repro — reproduction of the submatrix method for approximate matrix function
evaluation in linear-scaling DFT (Lass, Schade, Kühne, Plessl; SC 2020).

The package is organised into substrates, the core contribution, and a
unified session API on top:

``repro.api``
    The session API: :class:`~repro.api.config.EngineConfig` (one validated
    seven-field configuration: engine, backend, workers, filter threshold,
    temperature, spin degeneracy, plan-cache size), the
    :class:`~repro.signfn.registry.MatrixFunction` table of the two sign
    kernels, and
    :class:`~repro.api.context.SubmatrixContext` — the one entry point: the
    session that owns the plan cache, the persistent worker pool and the
    sharded pipelines, exposing ``apply`` / ``density`` / ``observables`` /
    ``trajectory`` (each single-process or, with ``ranks=``, sharded over
    simulated ranks).
``repro.chem``
    Synthetic liquid-water systems, model Kohn–Sham / overlap matrix builders,
    Löwdin orthogonalization and dense reference density-matrix solvers.
``repro.dbcsr``
    A block-compressed sparse matrix format modelled after CP2K's libDBCSR,
    its 2D process-grid distribution, the global COO block list and the
    conversions from/to SciPy (a SciPy matrix is a grid of 1×1 blocks).
``repro.parallel``
    Per-rank traffic accounting, a machine model used to convert FLOP/byte
    counts into simulated wall-clock times, and the serial/thread executors
    for genuinely parallel submatrix solves.
``repro.signfn``
    Matrix sign function algorithms (Newton–Schulz, higher-order Padé,
    eigendecomposition-based), inverse p-th roots, and the table of the two
    sign kernels (``eigen``, ``newton_schulz``) behind every solver string.
``repro.clustering``
    k-means and graph partitioning used to combine block columns into
    submatrices.
``repro.core``
    The submatrix method itself: submatrix extraction and result scatter-back,
    column grouping, block-transfer planning, load balancing, the one rank
    loop that executes single-process and sharded runs alike, and the
    distributed run cost model.
``repro.accel``
    The paper's Sec. VI accelerator study: emulated FP16'/FP32 tensor-core
    GEMMs (the emulated FP16 computes as FP16'), which
    ``repro.signfn.sign_pade(..., precision=)`` runs its iteration through,
    and a GPU/FPGA performance model.  The engine itself computes in float64
    NumPy only.
``repro.serve``
    Density-as-a-service: admission control around one session, running
    every request as one session call on a thread pool.
``repro.analysis``
    Sparsity statistics and evaluation metrics.
``repro.work``
    The method's work counts, stated once: every modeled FLOP count and load
    imbalance above reads it.

The most convenient entry point is the session API, re-exported here:

>>> import repro
>>> ctx = repro.SubmatrixContext(repro.EngineConfig(eps_filter=1e-5))
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
    TrajectoryResult,
    TrajectoryStats,
    UnknownKernelError,
    available_kernels,
    get_kernel,
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
    "TrajectoryResult",
    "TrajectoryStats",
    "MatrixFunction",
    "BoundKernel",
    "UnknownKernelError",
    "get_kernel",
    "available_kernels",
    "resolve_kernel",
]
