"""Density-as-a-service: admission control around one session.

:class:`DensityService` owns one :class:`~repro.api.context.SubmatrixContext`
and runs every request as one ``context.observables`` call on a dispatch
thread pool, so tenants share the session's plan cache, overlap roots and
worker pool, and every result is bitwise the direct call with the same
arguments.  What it adds to a caller's own thread pool over that session:

1. **validation** — the request passes
   :func:`~repro.api.observables.validate_request`, the check a direct call
   runs, before any slot is reserved, so a malformed request fails fast and
   free;
2. **admission** — an :class:`AdmissionController` caps the requests in
   flight, globally and per tenant, and refuses the rest with a
   :class:`ServiceOverloadError` at submit time, before their matrices are
   pinned in a queue;
3. **totals** — requests admitted, completed, failed and rejected
   (:meth:`DensityService.stats`), and a :meth:`~DensityService.close` that
   drains the pool before it closes the session.

This is an in-process service (futures in, results out).  A wire transport
would sit in front of :meth:`DensityService.submit`.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, Optional

import numpy as np

from repro.api.config import EngineConfig
from repro.api.context import SubmatrixContext
from repro.api.observables import validate_request

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "DensityService",
    "ServiceOverloadError",
]

#: Threads of the dispatch pool every request runs on.  Concurrent requests
#: add up only with one BLAS thread per call (``OPENBLAS_NUM_THREADS=1``
#: before NumPy loads); a multi-threaded BLAS entered from several threads at
#: once contends instead.
DISPATCH_WORKERS = 8

#: Constant-0 keys of the ``total`` counters: nothing records them; they stay
#: only because ``benchmarks/e2e`` reads them.
_INERT_TOTALS = ("batched", "coalesced", "shared")


class ServiceOverloadError(RuntimeError):
    """The service refused a request at admission time.

    Attributes
    ----------
    tenant:
        The tenant whose request was refused.
    reason:
        Human-readable refusal reason (which ceiling was hit).
    """

    def __init__(self, tenant: str, reason: str):
        super().__init__(f"request from tenant {tenant!r} rejected: {reason}")
        self.tenant = tenant
        self.reason = reason


@dataclasses.dataclass(frozen=True)
class AdmissionPolicy:
    """Ceilings enforced by the :class:`AdmissionController`.

    Attributes
    ----------
    max_in_flight:
        Global cap on requests past admission and not yet completed.
    max_in_flight_per_tenant:
        The same cap per tenant, so one aggressive tenant cannot occupy
        the whole service.
    """

    max_in_flight: int = 64
    max_in_flight_per_tenant: int = 8

    def __post_init__(self):
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        if self.max_in_flight_per_tenant < 1:
            raise ValueError("max_in_flight_per_tenant must be at least 1")


class AdmissionController:
    """Thread-safe in-flight accounting against an :class:`AdmissionPolicy`."""

    def __init__(self, policy: Optional[AdmissionPolicy] = None):
        self.policy = policy if policy is not None else AdmissionPolicy()
        self._lock = threading.Lock()
        self._total = 0
        self._per_tenant: Dict[str, int] = {}

    def admit(self, tenant: str) -> None:
        """Reserve one in-flight slot or raise :class:`ServiceOverloadError`."""
        with self._lock:
            if self._total >= self.policy.max_in_flight:
                raise ServiceOverloadError(
                    tenant,
                    f"service at capacity ({self._total} of "
                    f"{self.policy.max_in_flight} requests in flight)",
                )
            tenant_count = self._per_tenant.get(tenant, 0)
            if tenant_count >= self.policy.max_in_flight_per_tenant:
                raise ServiceOverloadError(
                    tenant,
                    f"tenant at capacity ({tenant_count} of "
                    f"{self.policy.max_in_flight_per_tenant} requests in flight)",
                )
            self._total += 1
            self._per_tenant[tenant] = tenant_count + 1

    def release(self, tenant: str) -> None:
        """Return a slot reserved by :meth:`admit` (exactly once per admit)."""
        with self._lock:
            remaining = self._per_tenant.get(tenant, 0) - 1
            if remaining > 0:
                self._per_tenant[tenant] = remaining
            else:
                self._per_tenant.pop(tenant, None)
            self._total = max(0, self._total - 1)


class DensityService:
    """Admission control and a dispatch pool around one submatrix session.

    Parameters
    ----------
    config:
        The :class:`EngineConfig` of the service's one session (resolved,
        so a deferred worker count is fixed once).
    policy:
        The service's :class:`AdmissionPolicy` (in-flight ceilings).
    batching / max_batch / batch_wait:
        No effect — accepted and ignored; they stay only because
        ``benchmarks/e2e`` passes them.

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
    ):
        config = config if config is not None else EngineConfig()
        self.context = SubmatrixContext(config.resolved())
        self.admission = AdmissionController(policy)
        self._lock = threading.Lock()
        self._closed = False
        self._totals = dict.fromkeys(("admitted", "completed", "failed", "rejected"), 0)
        self._dispatch = ThreadPoolExecutor(
            max_workers=DISPATCH_WORKERS, thread_name_prefix="density-service"
        )

    def _count(self, key: str) -> None:
        with self._lock:
            self._totals[key] += 1

    def _finish(self, tenant: str, outcome: str) -> None:
        self.admission.release(tenant)
        self._count(outcome)

    def submit(self, K, S, blocks, tenant: str = "default", **request) -> Future:
        """Submit one request; returns a future of its result.

        ``**request`` is a request of :meth:`SubmatrixContext.observables
        <repro.api.context.SubmatrixContext.observables>`, checked by
        :func:`~repro.api.observables.validate_request` with the shapes of
        ``K`` and ``S``; ``tenant``, a ``str``, selects the per-tenant
        admission cap.  With the default ``observables=("density",)`` the
        future resolves to the :class:`~repro.api.results.SubmatrixDFTResult`;
        any other observable set resolves to the
        :class:`~repro.api.results.ObservableBundle`.  A malformed request
        raises here, before admission; a refused one raises
        :class:`ServiceOverloadError`.  An admitted request releases its slot
        and is counted before its future resolves; one the pool refuses (a
        ``submit`` racing :meth:`close`) does so before the pool's
        ``RuntimeError`` propagates.
        """
        self._check_open()
        if not isinstance(tenant, str):
            raise TypeError(f"tenant must be a str, got {type(tenant).__name__}")
        names = validate_request(
            self.context.config, blocks, (np.shape(K), np.shape(S)), **request
        ).names
        try:
            self.admission.admit(tenant)
        except ServiceOverloadError:
            self._count("rejected")
            raise
        self._count("admitted")

        def run():
            try:
                bundle = self.context.observables(K, S, blocks, **request)
            except BaseException:
                self._finish(tenant, "failed")
                raise
            self._finish(tenant, "completed")
            return bundle["density"] if names == ("density",) else bundle

        try:
            return self._dispatch.submit(run)
        except RuntimeError:
            self._finish(tenant, "failed")
            raise

    def stats(self) -> Dict[str, object]:
        """Request totals and the session's plan-cache counters, safe to take
        while serving."""
        with self._lock:
            total = dict(self._totals)
        total.update(dict.fromkeys(_INERT_TOTALS, 0))
        return {
            "metrics": {"total": total},
            "plan_cache": dict(self.context.plan_cache.stats),
        }

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "this DensityService has been closed; create a new service "
                "to continue serving"
            )

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
