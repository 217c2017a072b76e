"""Per-tenant service metrics of the density service.

Extends the :class:`~repro.api.trajectory.TrajectoryStats` pattern — plain
counters with ratio helpers — to a *live* multi-tenant setting: counters are
updated concurrently by the dispatch pool's threads, so every mutation and
the :meth:`ServiceMetrics.snapshot` read are guarded by one lock.  Snapshots
are plain dictionaries (safe to serialize or diff) and can be taken at any
time while the service keeps serving.

Latency percentiles are computed over a bounded sliding window per tenant
(the most recent :data:`LATENCY_WINDOW` requests), so a long-running service
reports *current* tail behaviour instead of an all-time average, and memory
stays bounded no matter how many requests pass through.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict

import numpy as np

__all__ = ["ServiceMetrics", "LATENCY_WINDOW"]

#: Per-tenant sliding-window size for the latency percentiles.
LATENCY_WINDOW = 4096

#: Summed over tenants into :meth:`ServiceMetrics.snapshot`'s ``total``.
_COUNTERS = (
    "admitted",
    "completed",
    "failed",
    "rejected",
    "bytes_out",
    "cache_hits",
    "cache_misses",
)

#: Constant-0 keys of ``total``: nothing records them; they stay only because
#: ``benchmarks/e2e`` reads them.
_INERT_TOTALS = ("batched", "coalesced", "shared")


class _TenantState:
    """Mutable per-tenant counters (guarded by the owning metrics lock)."""

    __slots__ = _COUNTERS + ("latencies",)

    def __init__(self, window: int):
        for name in _COUNTERS:
            setattr(self, name, 0)
        self.latencies: Deque[float] = deque(maxlen=window)

    def snapshot(self) -> Dict[str, object]:
        latencies = np.asarray(self.latencies, dtype=float)
        p50 = float(np.percentile(latencies, 50)) if latencies.size else 0.0
        p99 = float(np.percentile(latencies, 99)) if latencies.size else 0.0
        lookups = self.cache_hits + self.cache_misses
        return {
            **{name: getattr(self, name) for name in _COUNTERS},
            "cache_hit_rate": (self.cache_hits / lookups) if lookups else 0.0,
            "p50_latency": p50,
            "p99_latency": p99,
        }


class ServiceMetrics:
    """Thread-safe per-tenant request/latency/cache/byte counters.

    Counters
    --------
    ``admitted`` / ``completed`` / ``failed`` / ``rejected``:
        Requests past admission control, finished successfully, finished
        with an error (or refused by a closing dispatch pool), and refused
        by admission control.
    ``bytes_out``:
        Result payload bytes (dense AO density plus sparse orthogonal
        density values, and every further requested observable) returned to
        the tenant.
    ``cache_hits`` / ``cache_misses``:
        Plan-cache traffic attributed to the tenant's requests —
        best-effort, since deltas of the shared cache counters may
        interleave between concurrent requests; the *global* cache stats on
        :meth:`DensityService.stats <repro.serve.server.DensityService.stats>`
        are always exact.
    ``p50_latency`` / ``p99_latency``:
        Submit-to-completion percentiles over the most recent
        ``latency_window`` requests.
    """

    def __init__(self, latency_window: int = LATENCY_WINDOW):
        if latency_window < 1:
            raise ValueError("latency_window must be at least 1")
        self._window = int(latency_window)
        self._lock = threading.Lock()
        self._tenants: Dict[str, _TenantState] = {}

    def _tenant(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _TenantState(self._window)
        return state

    def record_admitted(self, tenant: str) -> None:
        with self._lock:
            self._tenant(tenant).admitted += 1

    def record_rejected(self, tenant: str) -> None:
        with self._lock:
            self._tenant(tenant).rejected += 1

    def record_completed(
        self,
        tenant: str,
        latency: float,
        bytes_out: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
    ) -> None:
        with self._lock:
            state = self._tenant(tenant)
            state.completed += 1
            state.latencies.append(float(latency))
            state.bytes_out += int(bytes_out)
            state.cache_hits += int(cache_hits)
            state.cache_misses += int(cache_misses)

    def record_failed(self, tenant: str, latency: float) -> None:
        with self._lock:
            state = self._tenant(tenant)
            state.failed += 1
            state.latencies.append(float(latency))

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time copy of every counter, safe to take while serving."""
        with self._lock:
            tenants = {
                name: state.snapshot() for name, state in self._tenants.items()
            }
        total: Dict[str, float] = {
            key: sum(state[key] for state in tenants.values()) for key in _COUNTERS
        }
        lookups = total["cache_hits"] + total["cache_misses"]
        total["cache_hit_rate"] = (
            total["cache_hits"] / lookups if lookups else 0.0
        )
        total.update(dict.fromkeys(_INERT_TOTALS, 0))
        return {"tenants": tenants, "total": total}

