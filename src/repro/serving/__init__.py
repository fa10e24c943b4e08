"""Serving-grade robustness on top of the engine stack (extension).

The paper prices single queries; an on-device assistant is a *service*:
multi-tenant request streams, bounded queues, deadlines, and partial
failures.  This package adds a discrete-event serving runtime over the
:class:`~repro.engine.policies.InferenceEngine` phase costs:

* :mod:`repro.serving.workload` — seeded Poisson / trace request streams;
* :mod:`repro.serving.queue` — bounded admission queue with pluggable
  load-shedding policies and backpressure accounting;
* :mod:`repro.serving.breaker` — circuit breakers over the reliability
  health monitor, plus a brown-out controller for PIM saturation;
* :mod:`repro.serving.device` — the per-device policy core: breakers,
  brown-out, routing, retry pricing and decode placement, written once;
* :mod:`repro.serving.runtime` — the config, the SLO report, and the
  dispatch to a serving loop (the whole-request loop lives in
  :mod:`repro.workloads.runtime`);
* :mod:`repro.serving.crashes` — the crash-recovery campaign exercising
  the write-ahead MapID journal (and, with ``kv_injections``, the KV
  block pool's journal).

With ``ServingConfig.kv_blocks > 0`` the runtime runs the KV-aware
continuous-batching loop in :mod:`repro.kvcache.scheduler`, which
admits against a bounded paged KV block pool with prefix sharing (see
docs/KVCACHE.md).

See docs/SERVING.md for the queueing model and the recovery protocol.
"""

from repro.serving.breaker import BreakerState, BrownoutController, CircuitBreaker
from repro.serving.crashes import CrashReport, run_crash_campaign
from repro.serving.queue import SHED_POLICIES, AdmissionQueue, QueueStats
from repro.serving.runtime import (
    RequestOutcome,
    ServingConfig,
    ServingReport,
    ServingRuntime,
    sustainable_qps,
)
from repro.serving.workload import Request, TenantSpec, poisson_workload, trace_workload

__all__ = [
    "AdmissionQueue",
    "BreakerState",
    "BrownoutController",
    "CircuitBreaker",
    "CrashReport",
    "QueueStats",
    "Request",
    "RequestOutcome",
    "SHED_POLICIES",
    "ServingConfig",
    "ServingReport",
    "ServingRuntime",
    "TenantSpec",
    "poisson_workload",
    "run_crash_campaign",
    "sustainable_qps",
    "trace_workload",
]
