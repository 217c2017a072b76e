"""Per-tenant service metrics of the density service.

Extends the :class:`~repro.api.trajectory.TrajectoryStats` pattern — plain
counters with ratio helpers — to a *live* multi-tenant setting: counters are
updated concurrently by the dispatch pool and the micro-batcher thread, so
every mutation and the :meth:`ServiceMetrics.snapshot` read are guarded by
one lock.  Snapshots are plain dictionaries (safe to serialize or diff) and
can be taken at any time while the service keeps serving.

Latency percentiles are computed over a bounded sliding window per tenant
(the most recent :data:`LATENCY_WINDOW` requests), so a long-running service
reports *current* tail behaviour instead of an all-time average, and memory
stays bounded no matter how many requests pass through.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Optional

import numpy as np

__all__ = ["ServiceMetrics", "LATENCY_WINDOW"]

#: Per-tenant sliding-window size for the latency percentiles.
LATENCY_WINDOW = 4096


class _TenantState:
    """Mutable per-tenant counters (guarded by the owning metrics lock)."""

    __slots__ = (
        "admitted",
        "completed",
        "failed",
        "rejected",
        "batched",
        "coalesced",
        "shared",
        "bytes_out",
        "cache_hits",
        "cache_misses",
        "decomposition_hits",
        "decomposition_misses",
        "latencies",
    )

    def __init__(self, window: int):
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.batched = 0
        self.coalesced = 0
        self.shared = 0
        self.bytes_out = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.decomposition_hits = 0
        self.decomposition_misses = 0
        self.latencies: Deque[float] = deque(maxlen=window)

    def snapshot(self) -> Dict[str, object]:
        latencies = np.asarray(self.latencies, dtype=float)
        p50 = float(np.percentile(latencies, 50)) if latencies.size else 0.0
        p99 = float(np.percentile(latencies, 99)) if latencies.size else 0.0
        lookups = self.cache_hits + self.cache_misses
        return {
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "batched": self.batched,
            "coalesced": self.coalesced,
            "shared": self.shared,
            "bytes_out": self.bytes_out,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": (self.cache_hits / lookups) if lookups else 0.0,
            "decomposition_hits": self.decomposition_hits,
            "decomposition_misses": self.decomposition_misses,
            "p50_latency": p50,
            "p99_latency": p99,
        }


class ServiceMetrics:
    """Thread-safe per-tenant request/latency/cache/byte counters.

    Counters
    --------
    ``admitted`` / ``completed`` / ``failed`` / ``rejected``:
        Requests past admission control, finished successfully, finished
        with an error, and refused by admission control.
    ``batched`` / ``coalesced``:
        Requests served through a merged micro-batch of size > 1, and the
        total group size they were merged into (``coalesced / batched`` is
        the mean effective batch size).
    ``shared``:
        Requests whose μ-independent work (preparation, packing and the
        eigendecomposition) was deduplicated against a bytewise-identical
        peer in the same micro-batch.
    ``bytes_out``:
        Result payload bytes (dense AO density plus sparse orthogonal
        density values) returned to the tenant.
    ``cache_hits`` / ``cache_misses``:
        Plan-cache traffic attributed to the tenant's requests.  Exact on
        the micro-batched path (plan lookups run serially on the batcher
        thread); best-effort on the concurrent direct path, where deltas of
        the shared cache counters may interleave — the *global* cache stats
        on :meth:`DensityService.stats <repro.serve.server.DensityService.stats>`
        are always exact.
    ``decomposition_hits`` / ``decomposition_misses``:
        Short-TTL decomposition-cache traffic of the tenant's micro-batched
        requests: distinct request contents whose μ-independent work
        (preparation, packing, eigendecomposition) was served from the
        :class:`~repro.serve.batcher.DecompositionCache` of a *previous*
        micro-batch window vs. computed fresh (both 0 when the cache is
        disabled, the default).
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
        batched: bool = False,
        n_coalesced: int = 1,
        shared: bool = False,
        bytes_out: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
        decomposition_hits: int = 0,
        decomposition_misses: int = 0,
    ) -> None:
        with self._lock:
            state = self._tenant(tenant)
            state.completed += 1
            state.latencies.append(float(latency))
            if batched:
                state.batched += 1
                state.coalesced += int(n_coalesced)
            if shared:
                state.shared += 1
            state.bytes_out += int(bytes_out)
            state.cache_hits += int(cache_hits)
            state.cache_misses += int(cache_misses)
            state.decomposition_hits += int(decomposition_hits)
            state.decomposition_misses += int(decomposition_misses)

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
            key: 0
            for key in (
                "admitted",
                "completed",
                "failed",
                "rejected",
                "batched",
                "coalesced",
                "shared",
                "bytes_out",
                "cache_hits",
                "cache_misses",
                "decomposition_hits",
                "decomposition_misses",
            )
        }
        for state in tenants.values():
            for key in total:
                total[key] += state[key]
        lookups = total["cache_hits"] + total["cache_misses"]
        total["cache_hit_rate"] = (
            total["cache_hits"] / lookups if lookups else 0.0
        )
        return {"tenants": tenants, "total": total}

    def percentiles(
        self, tenant: Optional[str] = None, quantiles=(50.0, 99.0)
    ) -> Dict[float, float]:
        """Latency percentiles for one tenant (or pooled across all)."""
        with self._lock:
            if tenant is not None:
                states = [self._tenants[tenant]] if tenant in self._tenants else []
            else:
                states = list(self._tenants.values())
            pooled = [value for state in states for value in state.latencies]
        if not pooled:
            return {float(q): 0.0 for q in quantiles}
        array = np.asarray(pooled, dtype=float)
        return {float(q): float(np.percentile(array, q)) for q in quantiles}
