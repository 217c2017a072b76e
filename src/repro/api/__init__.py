"""repro.api — the unified session API of the submatrix engine.

One configuration (:class:`EngineConfig`, six fields), one fixed table of
the two sign kernels (:class:`MatrixFunction` et al., shared with
:mod:`repro.signfn.registry`), one request vocabulary
(:func:`repro.api.observables.validate_request`, the only signature that
lists the request keywords) and one session object
(:class:`SubmatrixContext`) that owns the plan cache, the persistent
executor and the sharded pipelines:

>>> from repro.api import EngineConfig, SubmatrixContext
>>> ctx = SubmatrixContext(EngineConfig(eps_filter=1e-5))
>>> f_a = ctx.apply(matrix, "eigen", mu=0.2)                 # doctest: +SKIP
>>> dft = ctx.density(K, S, blocks, n_electrons=256.0)       # doctest: +SKIP
>>> run = ctx.apply(block_matrix, "eigen", ranks=8)          # doctest: +SKIP
>>> md = [ctx.density(K, S, blocks, mu=-0.2) for K, S in step_pairs]  # doctest: +SKIP

:class:`SubmatrixContext` is the only entry point: a single process and a
run sharded over ``ranks=`` simulated ranks are the same call, bitwise
identical, through the one rank loop of :mod:`repro.core.runner`; ranks
own the blocks on DBCSR's default round-robin grid.  A trajectory or a
served client is a loop of such calls on one session (its plans, pools and
overlap roots are shared and thread-safe); ``ctx.observables``,
``ctx.density``, ``ctx.trajectory`` and ``DensityService.submit`` forward
their ``**request`` to ``validate_request``, so they take the same keywords
and refuse the same requests.  ``ctx.trajectory`` is that loop plus the
plan-cache counts of its steps.
"""

from repro.api.config import (
    BACKENDS,
    EIGENSOLVE_FLOP_CONSTANT,
    ENGINES,
    EngineConfig,
)
from repro.api.results import (
    EnergyWeightedDensityResult,
    ObservableBundle,
    PDOSResult,
    SubmatrixDFTResult,
    SubmatrixMethodResult,
)
from repro.api.context import SubmatrixContext
from repro.api.observables import (
    Observable,
    UnknownObservableError,
    available_observables,
    compute_observables,
    get_observable,
    normalize_observables,
)
from repro.api.trajectory import TrajectoryResult, TrajectoryStats, run_trajectory
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
    "EIGENSOLVE_FLOP_CONSTANT",
    "SubmatrixContext",
    "TrajectoryResult",
    "TrajectoryStats",
    "run_trajectory",
    "SubmatrixMethodResult",
    "SubmatrixDFTResult",
    "ObservableBundle",
    "PDOSResult",
    "EnergyWeightedDensityResult",
    "Observable",
    "UnknownObservableError",
    "available_observables",
    "compute_observables",
    "get_observable",
    "normalize_observables",
    "MatrixFunction",
    "BoundKernel",
    "UnknownKernelError",
    "get_kernel",
    "available_kernels",
    "resolve_kernel",
]
