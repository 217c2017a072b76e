"""One configuration object for the whole submatrix engine.

The :class:`~repro.api.context.SubmatrixContext` session and everything it
drives — plan lookup, the rank loop of :mod:`repro.core.runner`, the
sharded :class:`~repro.core.runner.DistributedSubmatrixPipeline` — share
the same knobs (worker backend and count, bucket padding, balancing
strategy, rank count, filter threshold).  :class:`EngineConfig` collects
them in one validated, immutable place, so they cannot drift apart between
layers.

This module sits at the bottom of the dependency graph (nothing from
:mod:`repro.core` is imported here), so the core and the session layer can
share its constants without import cycles.
"""

from __future__ import annotations

import dataclasses
import numbers
from typing import Optional, Union

from repro.parallel.executor import default_worker_count

__all__ = [
    "EngineConfig",
    "ENGINES",
    "BACKENDS",
    "BALANCE_STRATEGIES",
    "EIGENSOLVE_FLOP_CONSTANT",
    "check_positive_int",
]

#: The one execution engine: cached extraction plans plus bucketed stacks of
#: equal-dimension submatrices (Sec. III-A/IV-C).  The per-submatrix
#: reference lives in :mod:`repro.core.submatrix` and is what tests compare
#: against; nothing dispatches on this value.
ENGINES = ("batched",)

#: Worker backends of :func:`repro.parallel.executor.map_parallel`.
BACKENDS = ("serial", "thread")

#: Submatrix→rank assignment strategies of the distributed pipeline.
BALANCE_STRATEGIES = ("chunks", "stacks")

#: FLOPs of a dense symmetric eigendecomposition plus the two back
#: transformations Q·diag·Qᵀ, expressed as a multiple of n³.  dsyevd costs
#: roughly 4/3·n³ for the tridiagonal reduction plus ~4·n³ for the
#: divide-and-conquer back-transformation; forming Q Λ' Qᵀ adds ~4·n³.
#: That last term is the accounting of the paper's cost model and of the
#: ledger's staged replay, which both form the full product; the engine
#: itself forms only the generating-column panel (2·n²·w,
#: :func:`repro.core.batch.spectral_panel`).  The value is what the load
#: balancer weighs submatrices with and what ``benchmarks/e2e`` imports to
#: count ``signfn.eigh_flops``: it stays.
EIGENSOLVE_FLOP_CONSTANT = 9.0


def check_positive_int(value, name: str) -> Optional[int]:
    """The one check of a positive-integer setting (``None``: not given).

    Shared by the integer fields of :class:`EngineConfig` (``n_ranks``,
    ``max_workers``, ``plan_cache_size``, an integer ``bucket_pad``) and the
    per-call ``ranks=`` of ``apply``, ``density``/``observables``,
    ``trajectory`` and the serving layer's ``submit``: a float or a bool is
    a :class:`TypeError` (it would otherwise silently truncate to some
    count), zero or a negative count a :class:`ValueError`.
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
        ``"serial"`` or ``"thread"`` parallelism over the submatrix stacks
        (and over the ranks of a sharded run).
    max_workers:
        Worker count for the parallel backends; ``None`` resolves to the
        machine's CPU count.
    bucket_pad:
        Padding granularity of the batched engine's buckets: an integer,
        ``None`` for exact-dimension buckets, or ``"auto"`` to pick from the
        measured dimension histogram.  Rounded up to a whole number of the
        plan's runs (gcd of the block sizes: 32 becomes 36 on 6-wide blocks).
    balance:
        Submatrix→rank assignment of the distributed pipeline:
        ``"chunks"`` (paper's greedy consecutive chunks, Sec. IV-E) or
        ``"stacks"`` (bucket-aware LPT over whole stacks).
    n_ranks:
        Simulated rank count of sharded runs (1 = single process); a
        per-call ``ranks=`` overrides it.
    eps_filter:
        Truncation threshold applied to the orthogonalized Kohn–Sham matrix
        by the density solver (CP2K's ``eps_filter``).
    temperature:
        Electronic temperature in Kelvin (0 uses the extended signum).
    spin_degeneracy:
        2 for closed-shell systems.
    plan_cache_size:
        Capacity of the session's private :class:`~repro.core.plan.PlanCache`.

    ``max_workers``, ``n_ranks``, ``plan_cache_size`` and an integer
    ``bucket_pad`` pass :func:`check_positive_int`.
    """

    engine: str = "batched"
    backend: str = "serial"
    max_workers: Optional[int] = None
    bucket_pad: Optional[Union[int, str]] = None
    balance: str = "chunks"
    n_ranks: int = 1
    eps_filter: float = 1e-5
    temperature: float = 0.0
    spin_degeneracy: float = 2.0
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
        if isinstance(self.bucket_pad, str):
            if self.bucket_pad != "auto":
                raise ValueError(
                    "bucket_pad must be a positive integer, None or 'auto'"
                )
        else:
            check_positive_int(self.bucket_pad, "bucket_pad")
        if self.balance not in BALANCE_STRATEGIES:
            raise ValueError(
                f"balance must be one of {BALANCE_STRATEGIES}, got {self.balance!r}"
            )
        check_positive_int(self.n_ranks, "n_ranks")
        if self.eps_filter < 0:
            raise ValueError("eps_filter must be non-negative")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.spin_degeneracy <= 0:
            raise ValueError("spin_degeneracy must be positive")
        check_positive_int(self.plan_cache_size, "plan_cache_size")
        return self

    def resolved(self) -> "EngineConfig":
        """A copy with every deferred default filled in.

        Currently this resolves ``max_workers`` to the machine's CPU count.
        ``bucket_pad="auto"`` stays symbolic — it depends on the measured
        dimension histogram and is resolved per plan by
        :func:`repro.core.load_balance.resolve_bucket_pad`.
        """
        if self.max_workers is not None:
            return self
        return self.replace(max_workers=default_worker_count())

    def replace(self, **changes) -> "EngineConfig":
        """A validated copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)
