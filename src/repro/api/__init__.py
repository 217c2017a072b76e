"""repro.api — the unified session API of the submatrix engine.

One configuration (:class:`EngineConfig`), one fixed table of the two sign
kernels (:class:`MatrixFunction` et al., shared with
:mod:`repro.signfn.registry`) and one session object
(:class:`SubmatrixContext`) that owns the plan cache, the persistent
executor and the sharded pipelines:

>>> from repro.api import EngineConfig, SubmatrixContext
>>> ctx = SubmatrixContext(EngineConfig(backend="thread"))
>>> f_a = ctx.apply(matrix, "eigen", mu=0.2)                 # doctest: +SKIP
>>> dft = ctx.density(K, S, blocks, n_electrons=256.0)       # doctest: +SKIP
>>> run = ctx.apply(block_matrix, "eigen", ranks=8)          # doctest: +SKIP
>>> md = ctx.trajectory(step_pairs, blocks, mu=-0.2)         # doctest: +SKIP

:class:`SubmatrixContext` is the only entry point: a single process and a
run sharded over ``ranks=`` simulated ranks are the same call, bitwise
identical, through the one rank loop of :mod:`repro.core.runner`.
"""

from repro.api.config import (
    BACKENDS,
    BALANCE_STRATEGIES,
    EIGENSOLVE_FLOP_CONSTANT,
    ENGINES,
    EngineConfig,
)
from repro.api.checkpoint import CheckpointError, TrajectoryCheckpoint
from repro.api.results import (
    DecomposedSubmatrix,
    EnergyWeightedDensityResult,
    ObservableBundle,
    PDOSResult,
    SubmatrixDFTResult,
    SubmatrixMethodResult,
)
from repro.api.context import SubmatrixContext
from repro.api.observables import (
    Observable,
    SharedEvaluation,
    UnknownObservableError,
    available_observables,
    compute_observables,
    get_observable,
    normalize_observables,
)
from repro.api.scf import SCFResult, run_scf
from repro.api.trajectory import (
    TrajectoryResult,
    TrajectoryStats,
    TrajectoryStepRecord,
    run_trajectory,
)
from repro.signfn.registry import (
    BoundKernel,
    MatrixFunction,
    UnknownKernelError,
    available_kernels,
    get_kernel,
    resolve_kernel,
)

__all__ = [
    "EngineConfig",
    "ENGINES",
    "BACKENDS",
    "BALANCE_STRATEGIES",
    "EIGENSOLVE_FLOP_CONSTANT",
    "TrajectoryCheckpoint",
    "CheckpointError",
    "SubmatrixContext",
    "TrajectoryResult",
    "TrajectoryStats",
    "TrajectoryStepRecord",
    "run_trajectory",
    "SubmatrixMethodResult",
    "SubmatrixDFTResult",
    "DecomposedSubmatrix",
    "ObservableBundle",
    "PDOSResult",
    "EnergyWeightedDensityResult",
    "Observable",
    "SharedEvaluation",
    "UnknownObservableError",
    "available_observables",
    "compute_observables",
    "get_observable",
    "normalize_observables",
    "SCFResult",
    "run_scf",
    "MatrixFunction",
    "BoundKernel",
    "UnknownKernelError",
    "get_kernel",
    "available_kernels",
    "resolve_kernel",
]
