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
   :func:`~repro.api.observables.validate_request` (a trajectory:
   :func:`~repro.api.trajectory.validate_trajectory`), the check a direct
   call runs, before any resource is reserved, so malformed requests fail
   fast and free;
2. **admission** — the :class:`~repro.serve.admission.AdmissionController`
   enforces global and per-tenant in-flight ceilings
   (:class:`~repro.serve.admission.ServiceOverloadError` on refusal);
3. **dispatch** — the request runs as one session call
   (``context.observables`` or ``context.trajectory``) on the service's
   dispatch thread pool; the sessions and their shared plan cache are
   thread-safe, so concurrent requests parallelise across the pool;
4. **completion** — a single hook releases admission, records per-tenant
   metrics and re-enforces the plan-cache byte budget, then the request's
   future resolves.

Results are bitwise identical to calling ``context.observables`` directly
with the same arguments: the served request *is* that call.

This is an in-process service (futures in, results out).  A wire transport
would sit in front of :meth:`DensityService.submit` without touching the
admission or accounting machinery.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Dict, Optional

import numpy as np

from repro.api.config import EngineConfig
from repro.api.context import SubmatrixContext
from repro.api.observables import validate_request
from repro.api.results import ObservableBundle
from repro.api.trajectory import TrajectoryResult, validate_trajectory
from repro.core.plan import PlanCache
from repro.serve.admission import AdmissionController, AdmissionPolicy
from repro.serve.metrics import ServiceMetrics

__all__ = ["DensityService"]


def _payload_nbytes(result) -> int:
    """Result bytes returned to a tenant: every observable of a bundle, every
    step of a trajectory."""
    if isinstance(result, TrajectoryResult):
        return sum(_payload_nbytes(step) for step in result.results)
    if isinstance(result, ObservableBundle):
        return int(result.payload_nbytes())
    return int(result.density_ao.nbytes) + int(result.density_ortho.data.nbytes)


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
    batching / max_batch / batch_wait:
        No effect — accepted and ignored; they stay only because
        ``benchmarks/e2e`` passes them.
    dispatch_workers:
        Thread count of the dispatch pool every request runs on.
        Concurrent requests add up only with one BLAS thread per call
        (``OPENBLAS_NUM_THREADS=1`` before NumPy loads); a multi-threaded
        BLAS entered from several threads at once contends instead.
    latency_window:
        Per-tenant sliding-window size of the latency percentiles.

    The service is a context manager; :meth:`close` drains the dispatch
    pool and closes every pooled context.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        policy: Optional[AdmissionPolicy] = None,
        max_contexts: int = 8,
        batching: bool = True,
        max_batch: int = 8,
        batch_wait: float = 0.002,
        dispatch_workers: int = 8,
        latency_window: int = 4096,
    ):
        if max_contexts < 1:
            raise ValueError("max_contexts must be at least 1")
        if dispatch_workers < 1:
            raise ValueError("dispatch_workers must be at least 1")
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
    def _dispatch_admitted(self, tenant: str, work: Callable[[], object]) -> Future:
        """Admit one request of ``tenant`` and run ``work()`` on the pool.

        Returns the pool's own future.  The completion accounting — slot
        release, per-tenant metrics, the plan-cache byte budget — runs inside
        the pooled function before it returns or raises, so a caller blocking
        on the future observes the request already accounted for.  A request
        the pool refuses (a ``submit`` racing :meth:`close`) releases its
        slot and counts as failed before the pool's ``RuntimeError``
        propagates.
        """
        try:
            self.admission.admit(tenant)
        except Exception:
            self.metrics.record_rejected(tenant)
            raise
        self.metrics.record_admitted(tenant)
        submitted = time.perf_counter()

        def finish(result=None, cache_hits=0, cache_misses=0) -> None:
            # no result: the request failed or was never run
            latency = time.perf_counter() - submitted
            self.admission.release(tenant)
            if result is None:
                self.metrics.record_failed(tenant, latency)
            else:
                self.metrics.record_completed(
                    tenant,
                    latency,
                    bytes_out=_payload_nbytes(result),
                    cache_hits=cache_hits,
                    cache_misses=cache_misses,
                )
            self.admission.enforce_memory(self.plan_cache)

        def run():
            before = self.plan_cache.stats
            try:
                result = work()
            except BaseException:
                finish()
                raise
            after = self.plan_cache.stats
            # best-effort attribution: concurrent requests may interleave on
            # the shared counters (the global stats stay exact)
            finish(
                result,
                max(0, after["hits"] - before["hits"]),
                max(0, after["misses"] - before["misses"]),
            )
            return result

        try:
            return self._dispatch.submit(run)
        except RuntimeError:
            finish()
            raise

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
        names, _ = validate_request(
            config if config is not None else self.config,
            blocks,
            observables,
            mu,
            n_electrons,
            solver,
            observable_params,
            ranks,
            distribution,
            mu_tolerance,
            max_mu_iterations,
            shapes=(np.shape(K), np.shape(S)),
        )
        context = self._context_for(config)

        def work():
            bundle = context.observables(
                K,
                S,
                blocks,
                observables=names,
                mu=mu,
                n_electrons=n_electrons,
                solver=solver,
                grouping=grouping,
                mu_tolerance=mu_tolerance,
                max_mu_iterations=max_mu_iterations,
                ranks=ranks,
                distribution=distribution,
                observable_params=observable_params,
            )
            return bundle["density"] if names == ("density",) else bundle

        return self._dispatch_admitted(tenant, work)

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
        :class:`~repro.api.trajectory.TrajectoryResult`.  Like :meth:`submit`,
        a malformed trajectory raises here, before admission: ``kwargs``
        that :meth:`SubmatrixContext.trajectory` does not take are a
        :class:`TypeError`, and the request must pass
        :func:`~repro.api.trajectory.validate_trajectory`.
        """
        self._check_open()
        request = inspect.signature(SubmatrixContext.trajectory).bind(
            None, steps, blocks, **kwargs
        )
        request.apply_defaults()
        bound = request.arguments
        validate_trajectory(
            config if config is not None else self.config,
            steps,
            blocks,
            mu=bound["mu"],
            n_electrons=bound["n_electrons"],
            solver=bound["solver"],
            observables=bound["observables"],
            observable_params=bound["observable_params"],
            ranks=bound["ranks"],
            n_steps=bound["n_steps"],
            distribution=bound["distribution"],
            mu_tolerance=bound["mu_tolerance"],
            max_mu_iterations=bound["max_mu_iterations"],
        )
        context = self._context_for(config)
        return self._dispatch_admitted(
            tenant, lambda: context.trajectory(steps, blocks, **kwargs)
        )

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
            "contexts": contexts,
        }

    def close(self) -> None:
        """Drain the dispatch pool, close every pooled context.

        Idempotent.  Requests submitted before ``close()`` complete
        normally; submissions racing the shutdown fail with a
        ``RuntimeError`` and leave no admission slot behind.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
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
