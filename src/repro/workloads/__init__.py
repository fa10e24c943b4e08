"""Serving workloads beyond single-model chat (extension).

Three first-class workloads — speculative decoding, MoE expert
placement, and two-model co-residency — run on the same whole-request
serving loop as chat (:class:`~repro.workloads.runtime.WorkloadLoop`:
admission, deadlines, breakers, retries, replay barriers, request
spans) and differ only in how decode is priced and what placement
state they conserve.  A :class:`repro.serving.ServingRuntime` built
with ``workload=<spec>`` swaps in that workload's decode; without a
workload spec it serves chat, and chat reports carry no ``workload``
section.
"""

from repro.workloads.coresident import CoResidencyLoop
from repro.workloads.moe import ExpertPlacementLoop, ExpertPool, route_experts
from repro.workloads.runtime import (
    DecodeResult,
    WorkloadLoop,
    run_workload_serving,
)
from repro.workloads.specs import (
    WORKLOAD_NAMES,
    CoResidencySpec,
    ExpertPlacementSpec,
    SpeculativeSpec,
)
from repro.workloads.speculative import SpeculativeLoop, draft_round

__all__ = [
    "CoResidencyLoop",
    "CoResidencySpec",
    "DecodeResult",
    "ExpertPlacementLoop",
    "ExpertPool",
    "ExpertPlacementSpec",
    "SpeculativeLoop",
    "SpeculativeSpec",
    "WORKLOAD_NAMES",
    "WorkloadLoop",
    "draft_round",
    "route_experts",
    "run_workload_serving",
]
