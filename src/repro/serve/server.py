"""Density-as-a-service: a multi-tenant in-process density server.

:class:`DensityService` turns one session into a shared service: many
tenants submit density requests against the service's **one**
:class:`~repro.api.context.SubmatrixContext` and its
:class:`~repro.core.plan.PlanCache` — a tenant whose sparsity pattern was
already planned for another tenant gets a cache hit, which is the dominant
cost of small repeated requests.

The request path:

1. **validation** — the request passes
   :func:`~repro.api.observables.validate_request`, the check a direct call
   runs, before any resource is reserved, so malformed requests fail fast
   and free;
2. **admission** — the :class:`~repro.serve.admission.AdmissionController`
   enforces global and per-tenant in-flight ceilings
   (:class:`~repro.serve.admission.ServiceOverloadError` on refusal);
3. **dispatch** — the request runs as one ``context.observables`` call on
   the service's dispatch thread pool; the session and its plan cache are
   thread-safe, so concurrent requests parallelise across the pool;
4. **completion** — a single hook releases admission and records
   per-tenant metrics, then the request's future resolves.

Results are bitwise identical to calling ``context.observables`` directly
with the same arguments: the served request *is* that call.  A trajectory
is not a served request; run it on a session
(:meth:`SubmatrixContext.trajectory
<repro.api.context.SubmatrixContext.trajectory>`).

This is an in-process service (futures in, results out).  A wire transport
would sit in front of :meth:`DensityService.submit` without touching the
admission or accounting machinery.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Dict, Optional

import numpy as np

from repro.api.config import EngineConfig
from repro.api.context import SubmatrixContext
from repro.api.observables import validate_request
from repro.api.results import ObservableBundle
from repro.serve.admission import AdmissionController, AdmissionPolicy
from repro.serve.metrics import ServiceMetrics

__all__ = ["DensityService"]


def _payload_nbytes(result) -> int:
    """Result bytes returned to a tenant: every observable of a bundle."""
    if isinstance(result, ObservableBundle):
        return int(result.payload_nbytes())
    return int(result.density_ao.nbytes) + int(result.density_ortho.data.nbytes)


class DensityService:
    """Multi-tenant density server over one submatrix session.

    Parameters
    ----------
    config:
        The :class:`EngineConfig` of the service's one session (resolved,
        so a deferred worker count is fixed once); it also sizes the
        session's plan cache.
    policy:
        The service's :class:`AdmissionPolicy` (in-flight ceilings).
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
    pool and closes the session.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        policy: Optional[AdmissionPolicy] = None,
        batching: bool = True,
        max_batch: int = 8,
        batch_wait: float = 0.002,
        dispatch_workers: int = 8,
        latency_window: int = 4096,
    ):
        if dispatch_workers < 1:
            raise ValueError("dispatch_workers must be at least 1")
        config = config if config is not None else EngineConfig()
        self.context = SubmatrixContext(config.resolved())
        self.config = self.context.config
        self.plan_cache = self.context.plan_cache
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.admission = AdmissionController(self.policy)
        self.metrics = ServiceMetrics(latency_window=latency_window)
        self._lock = threading.Lock()
        self._closed = False
        self._dispatch = ThreadPoolExecutor(
            max_workers=dispatch_workers, thread_name_prefix="density-service"
        )

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "this DensityService has been closed; create a new service "
                "to continue serving"
            )

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    def _dispatch_admitted(self, tenant: str, work: Callable[[], object]) -> Future:
        """Admit one request of ``tenant`` and run ``work()`` on the pool.

        Returns the pool's own future.  The completion accounting — slot
        release and per-tenant metrics — runs inside the pooled function
        before it returns or raises, so a caller blocking on the future
        observes the request already accounted for.  A request
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
        <repro.api.context.SubmatrixContext.observables>`; ``tenant``, a
        ``str``, selects the accounting bucket.  With the default
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
        if not isinstance(tenant, str):
            raise TypeError(f"tenant must be a str, got {type(tenant).__name__}")
        names, _, _ = validate_request(
            self.config,
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
            grouping=grouping,
            shapes=(np.shape(K), np.shape(S)),
        )

        def work():
            bundle = self.context.observables(
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
    # introspection and lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Point-in-time service statistics, safe to take while serving."""
        cache = dict(self.plan_cache.stats)
        lookups = cache["hits"] + cache["misses"]
        return {
            "metrics": self.metrics.snapshot(),
            "admission": self.admission.snapshot(),
            "plan_cache": cache,
            "plan_cache_hit_rate": cache["hits"] / lookups if lookups else 0.0,
            "plan_cache_bytes": self.plan_cache.total_bytes,
        }

    def close(self) -> None:
        """Drain the dispatch pool, then close the session.

        Idempotent.  Requests submitted before ``close()`` complete
        normally; submissions racing the shutdown fail with a
        ``RuntimeError`` and leave no admission slot behind.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._dispatch.shutdown(wait=True)
        self.context.close()

    def __enter__(self) -> "DensityService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
