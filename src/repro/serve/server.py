"""Density-as-a-service: a multi-tenant in-process density server.

:class:`DensityService` turns the session API into a shared service: many
tenants submit density (and trajectory) requests against a pool of
:class:`~repro.api.context.SubmatrixContext` sessions keyed by their
resolved :class:`~repro.api.config.EngineConfig`, all sharing **one**
:class:`~repro.core.plan.PlanCache` — a tenant whose sparsity pattern was
already planned for another tenant gets a cache hit, which is the dominant
cost of small repeated requests.

The request path:

1. **validation** — the request passes
   :func:`~repro.api.observables.validate_request` (the check a direct
   call runs) before any resource is reserved, so malformed requests fail
   fast and free;
2. **admission** — the :class:`~repro.serve.admission.AdmissionController`
   enforces global and per-tenant in-flight ceilings
   (:class:`~repro.serve.admission.ServiceOverloadError` on refusal);
3. **routing** — requests eligible for cross-request batching (eigen-family
   solver, single rank, default grouping) go to the
   :class:`~repro.serve.batcher.MicroBatcher`; everything else (iterative
   solvers, rank-sharded or custom-grouped requests) runs directly on a
   dispatch thread pool;
4. **completion** — a single hook releases admission, records per-tenant
   metrics and re-enforces the plan-cache byte budget, then the request's
   future resolves.

Results are bitwise identical to calling ``context.observables`` directly
with the same arguments: the direct path *is* that call, and the batched
path ends in the same per-request tail (see :mod:`repro.serve.batcher`).

This is an in-process service (futures in, results out).  A wire transport
would sit in front of :meth:`DensityService.submit` without touching the
batching, admission or accounting machinery.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from repro.api.config import EngineConfig
from repro.api.context import SubmatrixContext
from repro.api.observables import validate_request
from repro.core.plan import PlanCache
from repro.serve.admission import AdmissionController, AdmissionPolicy
from repro.serve.batcher import DecompositionCache, DensityRequest, MicroBatcher
from repro.serve.metrics import ServiceMetrics
from repro.signfn.registry import get_kernel

__all__ = ["DensityService"]


class DensityService:
    """Multi-tenant density server over pooled submatrix sessions.

    Parameters
    ----------
    config:
        Default :class:`EngineConfig` of requests that do not bring their
        own; also supplies the shared plan cache's plan-count capacity.
    policy:
        The service's :class:`AdmissionPolicy` (in-flight ceilings and the
        plan-cache byte budget).
    max_contexts:
        LRU bound on the pool of per-configuration session contexts; idle
        contexts beyond the bound are closed and dropped (busy ones are
        skipped and retried on a later eviction pass).
    batching:
        Enable the cross-request micro-batcher; with ``False`` every
        request runs directly (one ``context.observables`` call each).
    max_batch / batch_wait:
        Micro-batch group-size cap and maximum coalescing wait in seconds.
    decomposition_ttl / decomposition_cache_size:
        Enable the content-keyed short-TTL
        :class:`~repro.serve.batcher.DecompositionCache` on the batched
        path: bytewise-identical hot requests arriving within
        ``decomposition_ttl`` seconds of each other reuse the earlier
        request's eigendecomposition *across* micro-batch windows.  The
        default ``0.0`` disables the cache (no entries are ever held);
        enabled, it holds at most ``decomposition_cache_size`` entries and
        :data:`~repro.serve.batcher.MAX_DECOMPOSITION_BYTES` of spectra.
    dispatch_workers:
        Thread count of the direct-path dispatch pool (also used for
        trajectory requests).
    latency_window:
        Per-tenant sliding-window size of the latency percentiles.

    The service is a context manager; :meth:`close` drains the batcher and
    dispatch pool and closes every pooled context.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        policy: Optional[AdmissionPolicy] = None,
        max_contexts: int = 8,
        batching: bool = True,
        max_batch: int = 8,
        batch_wait: float = 0.002,
        decomposition_ttl: float = 0.0,
        decomposition_cache_size: int = 32,
        dispatch_workers: int = 8,
        latency_window: int = 4096,
    ):
        if max_contexts < 1:
            raise ValueError("max_contexts must be at least 1")
        if dispatch_workers < 1:
            raise ValueError("dispatch_workers must be at least 1")
        if decomposition_ttl < 0:
            raise ValueError("decomposition_ttl must be non-negative")
        self.config = (config if config is not None else EngineConfig()).validate()
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.plan_cache = PlanCache(
            max_plans=self.config.plan_cache_size,
            max_bytes=self.policy.max_plan_cache_bytes,
        )
        self.admission = AdmissionController(self.policy)
        self.metrics = ServiceMetrics(latency_window=latency_window)
        self.max_contexts = int(max_contexts)
        self._contexts: "OrderedDict[EngineConfig, SubmatrixContext]" = (
            OrderedDict()
        )
        self._lock = threading.RLock()
        self._closed = False
        self._decomposition_cache = (
            DecompositionCache(
                ttl=decomposition_ttl, max_entries=decomposition_cache_size
            )
            if batching and decomposition_ttl > 0
            else None
        )
        self._batcher = (
            MicroBatcher(
                max_batch=max_batch,
                max_wait=batch_wait,
                decomposition_cache=self._decomposition_cache,
            )
            if batching
            else None
        )
        self._dispatch = ThreadPoolExecutor(
            max_workers=dispatch_workers, thread_name_prefix="density-service"
        )

    # ------------------------------------------------------------------ #
    # context pool
    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "this DensityService has been closed; create a new service "
                "to continue serving"
            )

    def _context_for(self, config: Optional[EngineConfig]) -> SubmatrixContext:
        """The pooled session for ``config`` (resolved), creating on demand.

        All pooled contexts share the service's plan cache, so plans built
        for one configuration serve every other configuration with the same
        sparsity pattern (plans are keyed by pattern content, not config).
        """
        resolved = (config if config is not None else self.config).resolved()
        with self._lock:
            self._check_open()
            context = self._contexts.get(resolved)
            if context is None:
                context = SubmatrixContext(resolved, plan_cache=self.plan_cache)
                self._contexts[resolved] = context
                self._evict_idle_contexts()
            self._contexts.move_to_end(resolved)
            return context

    def _evict_idle_contexts(self) -> None:
        """Close and drop idle LRU contexts beyond ``max_contexts`` (locked)."""
        if len(self._contexts) <= self.max_contexts:
            return
        for key in list(self._contexts):
            if len(self._contexts) <= self.max_contexts:
                break
            context = self._contexts[key]
            if context.in_flight:
                continue
            del self._contexts[key]
            context.close()

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    def submit(
        self,
        K,
        S,
        blocks,
        tenant: str = "default",
        config: Optional[EngineConfig] = None,
        mu: Optional[float] = None,
        n_electrons: Optional[float] = None,
        solver: str = "eigen",
        grouping=None,
        mu_tolerance: float = 1e-9,
        max_mu_iterations: int = 200,
        ranks: Optional[int] = None,
        distribution=None,
        mu_bracket: Optional[Tuple[float, float]] = None,
        observables=("density",),
        observable_params=None,
    ) -> Future:
        """Submit one observable-keyed request; returns a future of the result.

        Arguments mirror :meth:`SubmatrixContext.observables
        <repro.api.context.SubmatrixContext.observables>`; ``tenant``
        selects the accounting bucket and ``config`` the pooled session
        (the service default when omitted).  With the default
        ``observables=("density",)`` the future resolves to the familiar
        :class:`~repro.api.results.SubmatrixDFTResult`; any other
        observable set resolves to an
        :class:`~repro.api.results.ObservableBundle` sharing one
        decomposition pass.  Raises
        :class:`~repro.serve.admission.ServiceOverloadError` when admission
        control refuses the request.
        """
        self._check_open()
        # fail fast (and free) on malformed requests, before admission
        observable_names, _ = validate_request(
            config if config is not None else self.config,
            blocks,
            observables,
            mu,
            n_electrons,
            solver,
            observable_params,
            ranks,
        )
        context = self._context_for(config)
        try:
            self.admission.admit(tenant)
        except Exception:
            self.metrics.record_rejected(tenant)
            raise
        self.metrics.record_admitted(tenant)
        request = DensityRequest(
            tenant=tenant,
            context=context,
            K=K,
            S=S,
            blocks=blocks,
            mu=mu,
            n_electrons=n_electrons,
            solver=solver,
            mu_tolerance=mu_tolerance,
            max_mu_iterations=max_mu_iterations,
            mu_bracket=mu_bracket,
            grouping=grouping,
            ranks=ranks,
            distribution=distribution,
            observables=observable_names,
            observable_params=observable_params,
            submitted_at=time.perf_counter(),
            on_done=self._on_done,
        )
        if self._batchable(request, context):
            self._batcher.submit(request)
        else:
            self._dispatch.submit(self._run_direct, request)
        return request.future

    def _batchable(self, request: DensityRequest, context) -> bool:
        """Whether a request may join a merged micro-batch.

        Cross-request merging covers the common small-request shape: the
        eigen-family (μ-bisection-capable) solvers on a single rank with
        default per-column grouping.  Everything else — iterative sign
        kernels, rank-sharded or custom-grouped requests — runs direct, one
        session call each.
        """
        if self._batcher is None:
            return False
        if request.grouping is not None or request.distribution is not None:
            return False
        if request.ranks is not None or context.config.n_ranks != 1:
            return False
        return get_kernel(request.solver).supports_mu_bisection

    def _run_direct(self, request: DensityRequest) -> None:
        """Direct path: one tracked session call per request."""
        before = self.plan_cache.stats
        try:
            result = request.context.observables(
                request.K,
                request.S,
                request.blocks,
                observables=request.observables,
                mu=request.mu,
                n_electrons=request.n_electrons,
                solver=request.solver,
                grouping=request.grouping,
                mu_tolerance=request.mu_tolerance,
                max_mu_iterations=request.max_mu_iterations,
                ranks=request.ranks,
                distribution=request.distribution,
                mu_bracket=request.mu_bracket,
                observable_params=request.observable_params,
            )
        except Exception as error:
            request.fail(error)
        else:
            after = self.plan_cache.stats
            # best-effort attribution: concurrent requests may interleave
            # on the shared counters (the global stats stay exact)
            request.cache_hits += max(0, after["hits"] - before["hits"])
            request.cache_misses += max(0, after["misses"] - before["misses"])
            request.finish(result)

    def _on_done(self, request: DensityRequest, result, error) -> None:
        """Completion hook: admission release, metrics, memory enforcement."""
        latency = time.perf_counter() - request.submitted_at
        self.admission.release(request.tenant)
        if error is None:
            self.metrics.record_completed(
                request.tenant,
                latency,
                batched=request.batched,
                n_coalesced=request.n_coalesced,
                shared=request.shared,
                bytes_out=int(result.payload_nbytes()),
                cache_hits=request.cache_hits,
                cache_misses=request.cache_misses,
                decomposition_hits=request.decomposition_hits,
                decomposition_misses=request.decomposition_misses,
            )
        else:
            self.metrics.record_failed(request.tenant, latency)
        self.admission.enforce_memory(self.plan_cache)

    def density(self, K, S, blocks, **kwargs):
        """Synchronous :meth:`submit` — blocks and returns the result."""
        return self.submit(K, S, blocks, **kwargs).result()

    # ------------------------------------------------------------------ #
    # trajectories
    # ------------------------------------------------------------------ #
    def submit_trajectory(
        self,
        steps,
        blocks,
        tenant: str = "default",
        config: Optional[EngineConfig] = None,
        **kwargs,
    ) -> Future:
        """Submit a whole trajectory as one admission-controlled request.

        Runs :meth:`SubmatrixContext.trajectory
        <repro.api.context.SubmatrixContext.trajectory>` on a dispatch
        thread; the trajectory occupies one in-flight slot for its whole
        duration (a trajectory is one tenant workload, not N density
        requests).  Returns a future of the
        :class:`~repro.api.trajectory.TrajectoryResult`.
        """
        self._check_open()
        context = self._context_for(config)
        try:
            self.admission.admit(tenant)
        except Exception:
            self.metrics.record_rejected(tenant)
            raise
        self.metrics.record_admitted(tenant)
        submitted = time.perf_counter()
        return self._dispatch.submit(
            self._run_trajectory, context, tenant, submitted, steps, blocks, kwargs
        )

    def _run_trajectory(self, context, tenant, submitted, steps, blocks, kwargs):
        try:
            result = context.trajectory(steps, blocks, **kwargs)
        except BaseException:
            self.admission.release(tenant)
            self.metrics.record_failed(tenant, time.perf_counter() - submitted)
            raise
        self.admission.release(tenant)
        bytes_out = sum(
            int(step.payload_nbytes())
            if hasattr(step, "payload_nbytes")
            else int(step.density_ao.nbytes) + int(step.density_ortho.data.nbytes)
            for step in result.results
        )
        self.metrics.record_completed(
            tenant,
            time.perf_counter() - submitted,
            bytes_out=bytes_out,
        )
        self.admission.enforce_memory(self.plan_cache)
        return result

    def trajectory(self, steps, blocks, **kwargs):
        """Synchronous :meth:`submit_trajectory`."""
        return self.submit_trajectory(steps, blocks, **kwargs).result()

    # ------------------------------------------------------------------ #
    # introspection and lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Point-in-time service statistics, safe to take while serving."""
        cache = dict(self.plan_cache.stats)
        lookups = cache["hits"] + cache["misses"]
        with self._lock:
            contexts = len(self._contexts)
        return {
            "metrics": self.metrics.snapshot(),
            "admission": self.admission.snapshot(),
            "plan_cache": cache,
            "plan_cache_hit_rate": cache["hits"] / lookups if lookups else 0.0,
            "plan_cache_bytes": self.plan_cache.total_bytes,
            "decomposition_cache": (
                self._decomposition_cache.snapshot()
                if self._decomposition_cache is not None
                else None
            ),
            "contexts": contexts,
        }

    def close(self) -> None:
        """Drain the batcher and dispatch pool, close every pooled context.

        Idempotent.  Queued requests submitted before ``close()`` complete
        normally; submissions racing the shutdown fail with a
        ``RuntimeError``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._batcher is not None:
            self._batcher.close()
        self._dispatch.shutdown(wait=True)
        with self._lock:
            contexts = list(self._contexts.values())
            self._contexts.clear()
        for context in contexts:
            context.close()

    def __enter__(self) -> "DensityService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
