"""Workload profiling helpers (paper Figs. 2 and 3).

* :func:`decode_time_breakdown` — Fig. 2a: share of a decode step spent
  in linear (GEMV) operations vs attention/other, on the SoC.
* :func:`gemv_utilization` — Fig. 2b: compute and memory-bandwidth
  utilization of the four GEMV shapes of the model.
* :func:`pim_offload_speedup` — Fig. 3: end-to-end decode speedup from
  offloading GEMV to PIM, including the ideal-NPU comparator (infinite
  FLOPS, 100 % of peak bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.engine.policies import InferenceEngine
from repro.llm.layers import linear_specs
from repro.llm.model_config import LlmConfig
from repro.platforms.specs import PlatformSpec
from repro.soc.processor import SocProcessor, ideal_npu

__all__ = [
    "DecodeBreakdown",
    "UtilizationPoint",
    "OffloadSpeedup",
    "decode_time_breakdown",
    "gemv_utilization",
    "pim_offload_speedup",
]


@dataclass(frozen=True)
class DecodeBreakdown:
    """Fractions of one SoC decode step (Fig. 2a)."""

    linear_ns: float
    other_ns: float

    @property
    def total_ns(self) -> float:
        return self.linear_ns + self.other_ns

    @property
    def linear_fraction(self) -> float:
        return self.linear_ns / self.total_ns if self.total_ns else 0.0


@dataclass(frozen=True)
class UtilizationPoint:
    """One GEMV shape's roofline utilization (Fig. 2b)."""

    name: str
    m: int
    k: int
    compute_utilization: float
    memory_utilization: float


@dataclass(frozen=True)
class OffloadSpeedup:
    """Decode-phase speedups of Fig. 3."""

    soc_step_ns: float
    pim_step_ns: float
    ideal_npu_step_ns: float

    @property
    def pim_vs_soc(self) -> float:
        return self.soc_step_ns / self.pim_step_ns

    @property
    def npu_vs_soc(self) -> float:
        return self.soc_step_ns / self.ideal_npu_step_ns

    @property
    def pim_vs_ideal_npu(self) -> float:
        """The paper's headline 3.32x (Jetson, Llama3-8B)."""
        return self.ideal_npu_step_ns / self.pim_step_ns


def decode_time_breakdown(
    engine: InferenceEngine, context_len: int = 64
) -> DecodeBreakdown:
    """Split one SoC decode step into linear vs everything else."""
    total = engine.soc_decode_step_ns(context_len)
    linear = 0.0
    for spec in linear_specs(engine.model):
        linear += spec.count * engine.soc.gemv_time_ns(
            spec.out_features, spec.in_features, spec.dtype_bytes
        )
    return DecodeBreakdown(linear_ns=linear, other_ns=max(0.0, total - linear))


def gemv_utilization(
    soc: SocProcessor, model: LlmConfig
) -> List[UtilizationPoint]:
    """Compute/memory utilization of each distinct GEMV shape (Fig. 2b).

    Utilization is achieved-rate over peak: GEMV arithmetic intensity is
    ~1 MAC/element, so compute utilization lands well under 1 % while the
    memory system saturates to its measured ceiling.
    """
    points: List[UtilizationPoint] = []
    seen: set = set()
    for spec in linear_specs(model, include_head=False):
        shape = (spec.out_features, spec.in_features)
        if shape in seen:
            continue
        seen.add(shape)
        time_ns = soc.gemv_time_ns(spec.out_features, spec.in_features)
        flops = 2.0 * spec.out_features * spec.in_features
        bytes_moved = spec.bytes_per_instance + (
            spec.in_features + spec.out_features
        ) * spec.dtype_bytes
        compute_util = (flops / time_ns) / (soc.peak_tflops_fp16 * 1e3)
        memory_util = (bytes_moved / time_ns) / soc.peak_bw_gbps
        points.append(
            UtilizationPoint(
                name=spec.name,
                m=spec.out_features,
                k=spec.in_features,
                compute_utilization=compute_util,
                memory_utilization=memory_util,
            )
        )
    return points


def pim_offload_speedup(
    platform: PlatformSpec,
    model: Optional[LlmConfig] = None,
    context_len: int = 64,
) -> OffloadSpeedup:
    """Fig. 3: decode-step latency on the SoC, on SoC+PIM, and on the
    hypothetical ideal NPU."""
    engine = InferenceEngine(platform, model)
    npu_engine = InferenceEngine(
        platform, model, soc_override=ideal_npu(platform.peak_bw_gbps)
    )
    return OffloadSpeedup(
        soc_step_ns=engine.soc_decode_step_ns(context_len),
        pim_step_ns=engine.pim_decode_step_ns(context_len),
        ideal_npu_step_ns=npu_engine.soc_decode_step_ns(context_len),
    )
