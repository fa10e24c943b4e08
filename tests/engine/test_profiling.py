"""Tests for the Fig. 2 / Fig. 3 profiling helpers."""

from repro.engine.policies import InferenceEngine
from repro.engine.profiling import (
    decode_time_breakdown,
    gemv_utilization,
    pim_offload_speedup,
)
from repro.platforms.specs import JETSON_ORIN


class TestFig2aBreakdown:
    def test_linear_dominates_decode(self):
        """Fig. 2a: >90 % of the decode step is linear (GEMV) work."""
        engine = InferenceEngine(JETSON_ORIN)
        breakdown = decode_time_breakdown(engine, context_len=64)
        assert breakdown.linear_fraction > 0.9
        assert breakdown.other_ns > 0


class TestFig2bUtilization:
    def test_compute_low_memory_high(self):
        """Fig. 2b: GEMV compute utilization stays below 1 % while memory
        bandwidth utilization approaches the measured ceiling."""
        engine = InferenceEngine(JETSON_ORIN)
        points = gemv_utilization(JETSON_ORIN.soc, engine.model)
        assert len(points) >= 4
        for point in points:
            assert point.compute_utilization < 0.01
            assert point.memory_utilization > 0.5

    def test_distinct_dims_only(self):
        engine = InferenceEngine(JETSON_ORIN)
        points = gemv_utilization(JETSON_ORIN.soc, engine.model)
        shapes = [(p.m, p.k) for p in points]
        assert len(shapes) == len(set(shapes))


class TestFig3Offload:
    def test_pim_beats_ideal_npu(self):
        """Fig. 3's headline: PIM outruns even an NPU with infinite FLOPS
        at 100 % of peak bandwidth (3.32x in the paper)."""
        result = pim_offload_speedup(JETSON_ORIN)
        assert result.pim_vs_ideal_npu > 2.0
        assert result.pim_vs_soc > result.npu_vs_soc > 1.0

    def test_ordering(self):
        result = pim_offload_speedup(JETSON_ORIN)
        assert result.pim_step_ns < result.ideal_npu_step_ns < result.soc_step_ns
