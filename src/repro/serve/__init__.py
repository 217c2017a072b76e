"""Density-as-a-service: the in-process multi-tenant serving layer.

Public surface:

* :class:`~repro.serve.server.DensityService` — the multi-tenant server
  (pooled sessions over one shared plan cache, every request one session
  call on a dispatch thread pool, admission control);
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
