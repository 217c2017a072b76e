"""Density-as-a-service: the in-process multi-tenant serving layer.

Public surface:

* :class:`~repro.serve.server.DensityService` — the multi-tenant server
  (one session and its plan cache, every request one
  ``context.observables`` call on a dispatch thread pool, admission
  control; trajectories run on a session, not through the service);
* :class:`~repro.serve.admission.AdmissionPolicy` /
  :class:`~repro.serve.admission.AdmissionController` /
  :class:`~repro.serve.admission.ServiceOverloadError` — admission control;
* :class:`~repro.serve.metrics.ServiceMetrics` — per-tenant counters.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    ServiceOverloadError,
)
from repro.serve.metrics import LATENCY_WINDOW, ServiceMetrics
from repro.serve.server import DensityService

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "DensityService",
    "LATENCY_WINDOW",
    "ServiceMetrics",
    "ServiceOverloadError",
]
