"""Roofline-based SoC processor model (GPU/NPU GEMM and GEMV latency).

The paper measures GEMM/GEMV on real devices; we substitute a calibrated
roofline: an operation costs the maximum of its compute time (peak FP16
throughput x efficiency) and its memory time (peak bandwidth x the
*measured* utilization the paper reports per platform: 76.3 / 88.3 /
33.3 / 74.6 %).  TTFT/TTLT speedups in the paper are ratios between such
latencies plus re-layout costs, which the roofline captures; see
DESIGN.md, "Substitutions".

The *ridge point* (peak FLOPS / peak bandwidth) governs how quickly GEMM
becomes compute-bound as prefill length grows — the mechanism behind the
per-platform differences in Fig. 13.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SocProcessor", "ideal_npu"]


@dataclass(frozen=True)
class SocProcessor:
    """One SoC compute engine (the platform's best LLM processor).

    Attributes:
        name: e.g. ``"Ampere GPU"``.
        kind: ``"gpu"`` or ``"npu"``.
        peak_tflops_fp16: peak dense FP16 throughput.
        peak_bw_gbps: peak DRAM bandwidth available to the processor.
        bw_utilization: measured fraction of peak bandwidth achieved by
            memory-bound kernels (paper §VI-C).
        compute_efficiency: fraction of peak FLOPS achieved by large GEMM.
        kernel_launch_ns: fixed per-kernel dispatch overhead.
    """

    name: str
    kind: str
    peak_tflops_fp16: float
    peak_bw_gbps: float
    bw_utilization: float = 0.8
    compute_efficiency: float = 0.75
    kernel_launch_ns: float = 10_000.0

    def __post_init__(self) -> None:
        if self.peak_tflops_fp16 <= 0 or self.peak_bw_gbps <= 0:
            raise ValueError("peak throughput and bandwidth must be positive")
        if not 0 < self.bw_utilization <= 1:
            raise ValueError("bw_utilization must be in (0, 1]")
        if not 0 < self.compute_efficiency <= 1:
            raise ValueError("compute_efficiency must be in (0, 1]")

    # -- roofline ---------------------------------------------------------

    @property
    def ridge_point_flop_per_byte(self) -> float:
        """Arithmetic intensity at which compute and memory balance."""
        return self.peak_tflops_fp16 * 1e12 / (self.peak_bw_gbps * 1e9)

    def op_time_ns(self, flops: float, bytes_moved: float) -> float:
        """Roofline latency of one kernel."""
        compute_ns = flops / (self.peak_tflops_fp16 * 1e3 * self.compute_efficiency)
        memory_ns = bytes_moved / (self.peak_bw_gbps * self.bw_utilization)
        return max(compute_ns, memory_ns) + self.kernel_launch_ns

    # -- linear kernels ------------------------------------------------------

    def gemm_time_ns(
        self, m: int, n: int, k: int, dtype_bytes: int = 2, lda: int = 0
    ) -> float:
        """``(m x k) @ (k x n)`` — weights m*k, activations k*n.

        ``lda`` > k accounts for a padded leading dimension (the
        pimalloc'ed layout): the weight read traffic grows accordingly.
        """
        weight_cols = max(lda, k)
        flops = 2.0 * m * n * k
        bytes_moved = dtype_bytes * (m * weight_cols + k * n + m * n)
        return self.op_time_ns(flops, bytes_moved)

    def gemv_time_ns(self, m: int, k: int, dtype_bytes: int = 2, lda: int = 0) -> float:
        return self.gemm_time_ns(m, 1, k, dtype_bytes, lda)

    def stream_time_ns(self, bytes_moved: float) -> float:
        """Pure data movement at the measured utilization."""
        return bytes_moved / (self.peak_bw_gbps * self.bw_utilization)


def ideal_npu(peak_bw_gbps: float) -> SocProcessor:
    """The paper's hypothetical comparator (Fig. 3): infinite FLOPS and
    100 % utilization of peak memory bandwidth."""
    return SocProcessor(
        name="ideal-npu",
        kind="npu",
        peak_tflops_fp16=1e9,  # effectively infinite
        peak_bw_gbps=peak_bw_gbps,
        bw_utilization=1.0,
        compute_efficiency=1.0,
        kernel_launch_ns=0.0,
    )
