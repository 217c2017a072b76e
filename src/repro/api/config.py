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
    "ResiliencePolicy",
    "ENGINES",
    "BACKENDS",
    "BALANCE_STRATEGIES",
    "EIGENSOLVE_FLOP_CONSTANT",
    "check_ranks",
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


def check_ranks(ranks, name: str = "ranks") -> Optional[int]:
    """The one check of a rank count (``None``: not given).

    Shared by :attr:`EngineConfig.n_ranks` and the per-call ``ranks=`` of
    ``apply``, ``density``/``observables``, ``trajectory`` and the serving
    layer's ``submit``: anything but a positive integer is an error (a float
    or a bool would otherwise silently truncate to some rank count).
    """
    if ranks is None:
        return None
    if isinstance(ranks, bool) or not isinstance(ranks, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {ranks!r}")
    if ranks < 1:
        raise ValueError(f"{name} must be positive")
    return int(ranks)


@dataclasses.dataclass(frozen=True)
class ResiliencePolicy:
    """Failure-handling policy of the submatrix engine.

    Carried on :class:`EngineConfig` and threaded through
    :class:`~repro.api.context.SubmatrixContext` →
    :func:`~repro.core.runner.run_stacks` and the iterative sign kernels,
    for f(A) and densities alike.  Every recovery path
    preserves the engine's bitwise-identity discipline: a retried rank
    re-executes the *same* shard closure (scatter ranges are disjoint and
    idempotent), a retried kernel restarts the iteration from the original
    shifted submatrix (per-matrix iterates are independent of the stack
    composition), and the degraded single-process batched engine is the
    very path the sharded pipeline is property-tested against — so a
    recovered run equals the fault-free run bit for bit.

    Attributes
    ----------
    max_rank_retries:
        Retry rounds for failed pipeline rank tasks before the run is
        declared failed (and, with ``degrade_to_batched``, degraded).  The
        default 1 recovers every transient single-fault scenario at the
        cost of one re-execution.
    rank_rebalance:
        Reassign a failed rank's shard work to the surviving ranks via the
        existing LPT load-balance machinery
        (:func:`~repro.core.load_balance.assign_balanced_stacks`) instead
        of retrying it in place.  Affects bookkeeping (which survivor is
        billed) and the ``reassigned_stacks`` counter, never results.
    backoff_base:
        Seconds slept before retry round *r*: ``backoff_base · 2^(r−1)``.
        The default 0 keeps tests and simulations instantaneous; real
        deployments would set tens of milliseconds.
    stage_timeout:
        Wall-clock budget in seconds for one pipeline stage *including*
        its retry rounds; once exceeded, no further retries are attempted
        and the stage fails over to degradation.  ``None`` (default) means
        no timeout — the simulated substrate cannot hang.
    kernel_retries:
        Convergence retries of an iterative sign kernel
        (``newton_schulz``/``pade``) per stack before falling back.  Each
        retry restarts the non-converged matrices from their original
        shifted values with an iteration budget scaled by
        ``kernel_retry_growth`` — a genuine tightened-parameter retry, and
        bitwise identical to a fault-free solve once it converges.
    kernel_retry_growth:
        Multiplier applied to the iteration budget per kernel retry round
        (default 4: 100 → 400 → 1600 iterations).
    kernel_fallback:
        Registered kernel evaluating any still-non-converged submatrices
        after the retries (default ``"eigen"``, the paper's robust dense
        solver).  ``None`` raises
        :class:`~repro.signfn.registry.KernelConvergenceError` instead.
        Fallbacks are *recorded* (``kernel_fallbacks`` counters), never
        raised.
    degrade_to_batched:
        After ``max_rank_retries`` exhausted rounds, re-run the whole
        evaluation through the single-process batched engine (bitwise
        identical to the sharded path) instead of raising.  With ``False``
        the pipeline raises
        :class:`~repro.core.runner.PipelineExecutionError`.
    fault_injector:
        Optional :class:`~repro.parallel.faults.FaultInjector` consulted at
        the ``"rank"`` and ``"kernel"`` sites — the deterministic test
        substrate for all of the above.  Excluded from equality/hashing.
    """

    max_rank_retries: int = 1
    rank_rebalance: bool = True
    backoff_base: float = 0.0
    stage_timeout: Optional[float] = None
    kernel_retries: int = 1
    kernel_retry_growth: float = 4.0
    kernel_fallback: Optional[str] = "eigen"
    degrade_to_batched: bool = True
    fault_injector: Optional[object] = dataclasses.field(
        default=None, compare=False
    )

    def __post_init__(self):
        self.validate()

    def validate(self) -> "ResiliencePolicy":
        """Check every field; returns ``self`` so calls can be chained."""
        if self.max_rank_retries < 0:
            raise ValueError("max_rank_retries must be non-negative")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.stage_timeout is not None and self.stage_timeout <= 0:
            raise ValueError("stage_timeout must be positive (or None)")
        if self.kernel_retries < 0:
            raise ValueError("kernel_retries must be non-negative")
        if self.kernel_retry_growth < 1.0:
            raise ValueError("kernel_retry_growth must be at least 1")
        if self.kernel_fallback is not None and not isinstance(
            self.kernel_fallback, str
        ):
            raise ValueError("kernel_fallback must be a kernel name or None")
        return self

    def replace(self, **changes) -> "ResiliencePolicy":
        """A validated copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def disabled(cls) -> "ResiliencePolicy":
        """Policy with every recovery mechanism off (the PR-5 behaviour).

        Used as the baseline of ``benchmarks/bench_fault_recovery.py``:
        with this policy the engine takes the exact pre-resilience code
        paths, so the benchmark isolates the overhead of the layer.
        """
        return cls(
            max_rank_retries=0,
            rank_rebalance=False,
            kernel_retries=0,
            kernel_fallback=None,
            degrade_to_batched=False,
        )

    @property
    def active(self) -> bool:
        """Whether any recovery mechanism (or an injector) is configured.

        An inactive policy short-circuits to the unguarded pre-resilience
        execution paths, so it costs nothing.
        """
        return bool(
            self.max_rank_retries > 0
            or self.kernel_retries > 0
            or self.kernel_fallback is not None
            or self.degrade_to_batched
            or self.fault_injector is not None
        )


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
    resilience:
        The session's :class:`ResiliencePolicy` (rank retry/rebalance,
        kernel degradation, graceful fallback to the batched engine).  The
        default policy retries once, falls back to ``eigen`` on kernel
        non-convergence and degrades to the single-process engine on
        persistent pipeline failure; use
        :meth:`ResiliencePolicy.disabled` for the bare pre-resilience
        behaviour.
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
    resilience: ResiliencePolicy = dataclasses.field(
        default_factory=ResiliencePolicy
    )

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
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if self.bucket_pad is not None:
            if isinstance(self.bucket_pad, str):
                if self.bucket_pad != "auto":
                    raise ValueError(
                        "bucket_pad must be a positive integer, None or 'auto'"
                    )
            elif int(self.bucket_pad) < 1:
                raise ValueError("bucket_pad must be a positive integer")
        if self.balance not in BALANCE_STRATEGIES:
            raise ValueError(
                f"balance must be one of {BALANCE_STRATEGIES}, got {self.balance!r}"
            )
        check_ranks(self.n_ranks, "n_ranks")
        if self.eps_filter < 0:
            raise ValueError("eps_filter must be non-negative")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.spin_degeneracy <= 0:
            raise ValueError("spin_degeneracy must be positive")
        if self.plan_cache_size < 1:
            raise ValueError("plan_cache_size must be at least 1")
        if not isinstance(self.resilience, ResiliencePolicy):
            raise ValueError("resilience must be a ResiliencePolicy")
        self.resilience.validate()
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
