"""One configuration object for the whole submatrix engine.

The :class:`~repro.api.context.SubmatrixContext` session and everything it
drives — plan lookup, the rank loop of :mod:`repro.core.runner`, the
sharded :class:`~repro.core.runner.DistributedSubmatrixPipeline` — share
the same knobs (worker backend and count, filter threshold, electronic
temperature, plan-cache capacity).  :class:`EngineConfig`
collects them in one validated, immutable place, so they cannot drift apart
between layers.  There is no padding, balancing or rank-count setting: every
submatrix is solved at its own dimension, ranks get the paper's greedy
consecutive chunks, and a rank count is asked for per call (``ranks=``).

This module sits at the bottom of the dependency graph (nothing from
:mod:`repro.core` is imported here), so the core and the session layer can
share its constants without import cycles.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Optional

from repro.parallel.executor import default_worker_count
# the submatrix solve's constant, re-exported: ``benchmarks/e2e`` imports it
# from here to count ``signfn.eigh_flops``
from repro.work import EIGENSOLVE_FLOP_CONSTANT

__all__ = [
    "EngineConfig",
    "ENGINES",
    "BACKENDS",
    "EIGENSOLVE_FLOP_CONSTANT",
    "check_positive_int",
]

#: The one execution engine: cached extraction plans plus bucketed stacks of
#: equal-dimension submatrices (Sec. III-A/IV-C).  The per-submatrix
#: reference tests compare against lives in ``tests/submatrix_reference.py``;
#: nothing dispatches on this value.
ENGINES = ("batched",)

#: Worker backends of :func:`repro.parallel.executor.make_executor`.
BACKENDS = ("serial", "thread")


def check_positive_int(value, name: str) -> Optional[int]:
    """The one check of a positive-integer setting (``None``: not given).

    Shared by the integer fields of :class:`EngineConfig` (``max_workers``,
    ``plan_cache_size``) and the per-call ``ranks=`` of ``apply`` and of
    every density request (:func:`~repro.api.observables.validate_request`):
    a float or a bool is a :class:`TypeError` (it would otherwise
    silently truncate to some count), zero or a negative count a
    :class:`ValueError`.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive")
    return int(value)


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """Shared configuration of the submatrix engine.

    Attributes
    ----------
    engine:
        Always ``"batched"`` (cached extraction plan plus bucketed 3-D stack
        evaluation) — the field only survives because callers still name it.
    backend:
        ``"thread"`` (default) or ``"serial"`` parallelism over the
        submatrix stacks (and over the ranks of a sharded run).  Threaded
        results are bitwise the serial ones: every kernel works one matrix
        at a time, whatever the stack composition or worker.
    max_workers:
        Worker count of the session's pool; ``None`` resolves to
        :func:`~repro.parallel.executor.default_worker_count` — the CPUs
        this process may use divided by the BLAS threads pinned in the
        environment (``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, else
        ``MKL_NUM_THREADS``), so one worker and no pool while BLAS is
        unpinned and already uses every CPU.
    eps_filter:
        Truncation threshold applied to the orthogonalized Kohn–Sham matrix
        by the density solver (CP2K's ``eps_filter``).
    temperature:
        Electronic temperature in Kelvin (0 uses the extended signum).
    plan_cache_size:
        Capacity of the session's private :class:`~repro.core.plan.PlanCache`.

    ``max_workers`` and ``plan_cache_size`` pass :func:`check_positive_int`;
    ``eps_filter`` and ``temperature`` must be finite and non-negative.  The
    spin degeneracy is not a setting: every system is closed-shell
    (:data:`~repro.chem.density.SPIN_DEGENERACY`).
    """

    engine: str = "batched"
    backend: str = "thread"
    max_workers: Optional[int] = None
    eps_filter: float = 1e-5
    temperature: float = 0.0
    plan_cache_size: int = 64

    def __post_init__(self):
        self.validate()

    def validate(self) -> "EngineConfig":
        """Check every field; returns ``self`` so calls can be chained."""
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        check_positive_int(self.max_workers, "max_workers")
        for name in ("eps_filter", "temperature"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.eps_filter < 0:
            raise ValueError("eps_filter must be non-negative")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        check_positive_int(self.plan_cache_size, "plan_cache_size")
        return self

    def resolved(self) -> "EngineConfig":
        """A copy with every deferred default filled in.

        Currently this resolves ``max_workers`` to
        :func:`~repro.parallel.executor.default_worker_count`.
        """
        if self.max_workers is not None:
            return self
        return self.replace(max_workers=default_worker_count())

    def replace(self, **changes) -> "EngineConfig":
        """A validated copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)
