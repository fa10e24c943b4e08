"""Robustness of the evaluation pipeline: seed stability, platform
variants, and model overrides."""

from dataclasses import replace

from repro.engine import policies
from repro.engine.metrics import geomean
from repro.engine.policies import InferenceEngine
from repro.engine.runner import dataset_eval, ttft_speedup_sweep
from repro.llm.datasets import ALPACA_LIKE
from repro.llm.inference import attention_cost
from repro.llm.model_config import PHI_1_5
from repro.pim.config import AIM_GDDR6, HBM_PIM
from repro.platforms.specs import JETSON_ORIN
from repro.soc.processor import ideal_npu


class TestSeedStability:
    def test_dataset_geomean_stable_across_seeds(self):
        """The headline dataset speedups are properties of the length
        distribution, not of one lucky sample."""
        engine = InferenceEngine(JETSON_ORIN)
        geomeans = [
            dataset_eval(engine, ALPACA_LIKE, n_queries=60, seed=seed)
            .ttft_speedup_over("hybrid-static")
            for seed in range(5)
        ]
        spread = max(geomeans) / min(geomeans)
        assert spread < 1.10

    def test_sample_size_convergence(self):
        engine = InferenceEngine(JETSON_ORIN)
        small = dataset_eval(engine, ALPACA_LIKE, n_queries=30).ttft_speedup_over(
            "hybrid-static"
        )
        large = dataset_eval(engine, ALPACA_LIKE, n_queries=200).ttft_speedup_over(
            "hybrid-static"
        )
        assert abs(small - large) / large < 0.15


class TestPimDeviceVariants:
    def test_hbm_pim_style_platform_works_end_to_end(self):
        """The whole engine runs with the HBM-PIM chunk shape — the
        mapping formulation's generality carries through the stack."""
        platform = replace(JETSON_ORIN, pim=HBM_PIM)
        engine = InferenceEngine(platform)
        gm = geomean([p.ttft_speedup for p in ttft_speedup_sweep(engine)])
        assert 1.5 < gm < 3.5

    def test_gddr6_pim_shrinks_decode_step(self):
        from repro.dram.config import DramConfig, GDDR6_16000_TIMINGS

        gddr6_platform = replace(
            JETSON_ORIN,
            pim=AIM_GDDR6,
            dram=DramConfig(
                JETSON_ORIN.dram.org, GDDR6_16000_TIMINGS
            ).with_data_rate(16000),
        )
        fast = InferenceEngine(gddr6_platform)
        slow = InferenceEngine(JETSON_ORIN)
        assert fast.pim_decode_step_ns(88) < 0.5 * slow.pim_decode_step_ns(88)


class TestOverrides:
    def test_model_override(self):
        engine = InferenceEngine(JETSON_ORIN, model=PHI_1_5)
        assert engine.model.name == "phi-1.5"
        # a 1.4B model decodes far faster than the 8B default
        base = InferenceEngine(JETSON_ORIN)
        assert engine.soc_decode_step_ns(64) < base.soc_decode_step_ns(64) / 3

    def test_soc_override_ideal_npu(self):
        npu = InferenceEngine(
            JETSON_ORIN, soc_override=ideal_npu(JETSON_ORIN.peak_bw_gbps)
        )
        base = InferenceEngine(JETSON_ORIN)
        assert npu.soc_decode_step_ns(64) < base.soc_decode_step_ns(64)

    def test_memoization_consistency(self, monkeypatch):
        """Cached pricing functions return identical values on repeat
        calls (and the caches actually engage)."""
        engine = InferenceEngine(JETSON_ORIN)
        first = engine.pim_decode_step_ns(321)
        calls = []
        monkeypatch.setattr(
            policies, "attention_cost", lambda *args: calls.append(args) or attention_cost(*args)
        )
        second = engine.pim_decode_step_ns(321)
        assert first == second
        assert calls == []

    def test_relayout_mode_override(self):
        simulated_free = InferenceEngine(JETSON_ORIN, relayout_mode="peak-bw")
        assert simulated_free.relayout_total_ns() > 0
