"""Admission control of the density service.

A multi-tenant service needs back-pressure before work starts, not after:
once a density request is queued its matrices are pinned in memory and its
plan may be built, so the cheap place to shed load is the submit path.
:class:`AdmissionController` enforces two in-flight ceilings — a global one
protecting the process and a per-tenant one protecting tenants from each
other.

Rejections raise :class:`ServiceOverloadError`, a ``RuntimeError`` carrying
the tenant and a human-readable reason, so callers can distinguish
"try again later" from a genuine request failure.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, Optional

__all__ = ["AdmissionPolicy", "AdmissionController", "ServiceOverloadError"]


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
        self._rejections = 0

    def admit(self, tenant: str) -> None:
        """Reserve one in-flight slot or raise :class:`ServiceOverloadError`."""
        with self._lock:
            if self._total >= self.policy.max_in_flight:
                self._rejections += 1
                raise ServiceOverloadError(
                    tenant,
                    f"service at capacity ({self._total} of "
                    f"{self.policy.max_in_flight} requests in flight)",
                )
            tenant_count = self._per_tenant.get(tenant, 0)
            if tenant_count >= self.policy.max_in_flight_per_tenant:
                self._rejections += 1
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

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time copy of the admission state."""
        with self._lock:
            return {
                "in_flight": self._total,
                "per_tenant": dict(self._per_tenant),
                "rejections": self._rejections,
                "max_in_flight": self.policy.max_in_flight,
                "max_in_flight_per_tenant": self.policy.max_in_flight_per_tenant,
            }
