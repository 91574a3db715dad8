"""Network serving front-end and open-loop load harness.

This package turns the in-process :class:`~repro.vdms.server.VectorDBServer`
into a multi-tenant network service with explicit overload behaviour:

* :mod:`repro.serving.admission` — per-tenant bounded request queues drained
  by weighted-fair (stride) scheduling, per-request deadlines checked at
  dequeue, load shedding, tenant eviction, graceful drain.
* :mod:`repro.serving.tenancy` — the tenant model: :class:`TenantSLO`
  (recall floor / p99 target / cost budget, mapping onto the paper's
  constrained acquisition) and :class:`TenantSpec` with the
  ``--tenant-config`` file parser.
* :mod:`repro.serving.server` — :class:`ServingFrontend`, a threaded-socket
  JSON-over-HTTP server mapping admission outcomes onto status codes
  (200 / 429 shed / 503 draining / 504 deadline / 409 evicted), routing
  requests to per-tenant queues by collection name.
* :mod:`repro.serving.loadgen` — :class:`LoadGenerator`, an open-loop
  Poisson-arrival load generator; :class:`MultiTenantLoadGenerator` for
  mixed per-tenant QPS/Zipf/filter traffic profiles; plus a closed-loop
  :func:`measure_saturation` probe to anchor offered-load sweeps.
"""

from repro.serving.admission import (
    DEFAULT_TENANT,
    AdmissionController,
    AdmissionError,
    AdmissionSnapshot,
    DeadlineExceededError,
    QueueFullError,
    ServerDrainingError,
    TenantEvictedError,
)
from repro.serving.loadgen import (
    LoadGenerator,
    LoadReport,
    MixedLoadReport,
    MultiTenantLoadGenerator,
    TenantLoadProfile,
    measure_saturation,
    run_load,
    run_mixed_load,
)
from repro.serving.server import ServingConfig, ServingFrontend
from repro.serving.tenancy import TenantSLO, TenantSpec, load_tenant_config, parse_tenant_config

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AdmissionSnapshot",
    "DEFAULT_TENANT",
    "DeadlineExceededError",
    "LoadGenerator",
    "LoadReport",
    "MixedLoadReport",
    "MultiTenantLoadGenerator",
    "QueueFullError",
    "ServerDrainingError",
    "ServingConfig",
    "ServingFrontend",
    "TenantEvictedError",
    "TenantLoadProfile",
    "TenantSLO",
    "TenantSpec",
    "load_tenant_config",
    "measure_saturation",
    "parse_tenant_config",
    "run_load",
    "run_mixed_load",
]
