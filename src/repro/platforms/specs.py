"""Platform catalog: the four evaluated devices of Table II.

Each :class:`PlatformSpec` bundles the SoC processor roofline, the LPDDR5
memory organization (channel count derived from bus width), the PIM
augmentation assumed by the paper (AiM-style, 2 ranks/channel, 16 banks
sharing a 2 KB global buffer), the target LLM, and the two measured
calibration constants the paper reports:

* ``bw_utilization`` — memory-bandwidth utilization of GEMV kernels
  (§VI-C: 76.3 / 88.3 / 33.3 / 74.6 %);
* ``gemm_layout_slowdown`` — the conservative worst-case GEMM slowdown on
  the PIM-optimized layout (Table III: 2.1 / 0.1 / 1.1 / 1.6 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.dram.config import (
    DramConfig,
    LPDDR5_6400_TIMINGS,
    LPDDR5X_7467_TIMINGS,
    lpddr5_organization,
)
from repro.pim.config import AIM_LPDDR5, PimConfig
from repro.soc.processor import SocProcessor

__all__ = ["PlatformSpec", "JETSON_ORIN", "MACBOOK_PRO", "IDEAPAD", "IPHONE_15_PRO", "ALL_PLATFORMS"]


@dataclass(frozen=True)
class PlatformSpec:
    """One evaluated SoC platform (a row of Table II)."""

    name: str
    soc: SocProcessor
    dram: DramConfig
    pim: PimConfig
    model_name: str
    framework: str
    gemm_layout_slowdown: float  # Table III worst case, as a fraction

    @property
    def peak_bw_gbps(self) -> float:
        return self.dram.org.peak_bandwidth_gbps


def _platform(
    name: str,
    processor_name: str,
    kind: str,
    tflops: float,
    bus_bits: int,
    capacity_gb: int,
    data_rate: int,
    timings,
    bw_utilization: float,
    model_name: str,
    framework: str,
    layout_slowdown: float,
) -> PlatformSpec:
    org = lpddr5_organization(
        bus_width_bits=bus_bits, capacity_gb=capacity_gb, data_rate_mbps=data_rate
    )
    soc = SocProcessor(
        name=processor_name,
        kind=kind,
        peak_tflops_fp16=tflops,
        peak_bw_gbps=org.peak_bandwidth_gbps,
        bw_utilization=bw_utilization,
    )
    return PlatformSpec(
        name=name,
        soc=soc,
        dram=DramConfig(org, timings),
        pim=AIM_LPDDR5,
        model_name=model_name,
        framework=framework,
        gemm_layout_slowdown=layout_slowdown,
    )


JETSON_ORIN = _platform(
    name="jetson-agx-orin",
    processor_name="Ampere CUDA/Tensor cores",
    kind="gpu",
    tflops=42.5,
    bus_bits=256,
    capacity_gb=64,
    data_rate=6400,
    timings=LPDDR5_6400_TIMINGS,
    bw_utilization=0.763,
    model_name="llama3-8b",
    framework="TinyChatEngine",
    layout_slowdown=0.021,
)

MACBOOK_PRO = _platform(
    name="macbook-pro-m3-max",
    processor_name="M3 Max GPU",
    kind="gpu",
    tflops=28.4,
    bus_bits=512,
    capacity_gb=64,
    data_rate=6400,
    timings=LPDDR5_6400_TIMINGS,
    bw_utilization=0.883,
    model_name="llama3-8b",
    framework="MLX",
    layout_slowdown=0.001,
)

IDEAPAD = _platform(
    name="ideapad-slim-5",
    processor_name="Core Ultra 7 155H NPU",
    kind="npu",
    tflops=5.6,
    bus_bits=64,
    capacity_gb=32,
    data_rate=7467,
    timings=LPDDR5X_7467_TIMINGS,
    bw_utilization=0.333,
    model_name="opt-6.7b",
    framework="Intel NPU Acceleration Library",
    layout_slowdown=0.011,
)

IPHONE_15_PRO = _platform(
    name="iphone-15-pro",
    processor_name="A17 Pro GPU",
    kind="gpu",
    tflops=4.29,
    bus_bits=64,
    capacity_gb=8,
    data_rate=6400,
    timings=LPDDR5_6400_TIMINGS,
    bw_utilization=0.746,
    model_name="phi-1.5",
    framework="MLX Swift",
    layout_slowdown=0.016,
)

ALL_PLATFORMS: Tuple[PlatformSpec, ...] = (
    JETSON_ORIN,
    MACBOOK_PRO,
    IDEAPAD,
    IPHONE_15_PRO,
)
