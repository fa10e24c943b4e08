"""Shape-level reproduction checks against the paper's reported numbers.

These assert the *qualitative* results — who wins, by roughly what factor,
where the trends point — with bands wide enough to absorb the
simulator-vs-testbed gap documented in EXPERIMENTS.md.
"""

import pytest

from repro.engine.metrics import geomean
from repro.engine.policies import InferenceEngine
from repro.engine.profiling import pim_offload_speedup
from repro.engine.runner import dataset_eval, ttft_speedup_sweep, ttlt_speedup_grid
from repro.llm.datasets import ALPACA_LIKE, HUMANEVAL_AUTOCOMPLETE_LIKE
from repro.platforms.specs import ALL_PLATFORMS, JETSON_ORIN


@pytest.fixture(scope="module")
def engines():
    return {p.name: InferenceEngine(p) for p in ALL_PLATFORMS}


class TestFig3:
    def test_pim_vs_ideal_npu_near_paper(self):
        """Paper: 3.32x over the ideal NPU on Jetson/Llama3-8B."""
        result = pim_offload_speedup(JETSON_ORIN)
        assert 2.3 < result.pim_vs_ideal_npu < 4.5


class TestFig6:
    def test_relayout_inflates_jetson_ttft(self, engines):
        """Paper: re-layout inflates TTFT roughly 3x (~100 -> ~300 ms);
        our conservative full-bandwidth re-layout gives ~2.4x."""
        engine = engines["jetson-agx-orin"]
        for prefill in (4, 16, 64):
            facil = engine.run_query("facil", prefill, 8, dynamic_offload=False)
            static = engine.run_query("hybrid-static", prefill, 8)
            ratio = static.ttft_ns / facil.ttft_ns
            assert 2.0 < ratio < 3.5
            # absolute scale: FACIL TTFT ~100 ms on Jetson
            assert 0.05 < facil.ttft_ns / 1e9 < 0.2


class TestFig13:
    PAPER_GEOMEANS = {
        "jetson-agx-orin": 2.89,
        "macbook-pro-m3-max": 2.19,
        "ideapad-slim-5": 1.55,
        "iphone-15-pro": 2.36,
    }

    def test_geomeans_within_band(self, engines):
        for name, engine in engines.items():
            points = ttft_speedup_sweep(engine)
            ours = geomean([p.ttft_speedup for p in points])
            paper = self.PAPER_GEOMEANS[name]
            assert paper * 0.65 < ours < paper * 1.35, (name, ours)

    def test_ideapad_is_the_smallest_speedup(self, engines):
        """§VI-C: the IdeaPad's low bandwidth utilization makes prefill
        slow, shrinking the re-layout share and thus FACIL's gain."""
        geomeans = {
            name: geomean([p.ttft_speedup for p in ttft_speedup_sweep(engine)])
            for name, engine in engines.items()
        }
        assert min(geomeans, key=geomeans.get) == "ideapad-slim-5"

    def test_speedup_diminishes_with_prefill(self, engines):
        for engine in engines.values():
            points = ttft_speedup_sweep(engine, prefill_lengths=(8, 512))
            assert points[0].ttft_speedup >= points[1].ttft_speedup


class TestFig14:
    def test_ttlt_speedup_at_64_64(self, engines):
        """Paper: ~10 % TTLT improvement at decode length 64."""
        for engine in engines.values():
            point = ttlt_speedup_grid(
                engine, prefill_lengths=(64,), decode_lengths=(64,)
            )[0]
            assert 1.04 < point.ttlt_speedup < 1.30

    def test_long_decode_amortizes(self, engines):
        engine = engines["jetson-agx-orin"]
        grid = ttlt_speedup_grid(
            engine, prefill_lengths=(64,), decode_lengths=(16, 512)
        )
        assert grid[0].ttlt_speedup > grid[1].ttlt_speedup
        assert grid[1].ttlt_speedup > 1.0


class TestFig15Fig16:
    @pytest.fixture(scope="class")
    def results(self, engines):
        out = {}
        for dataset in (ALPACA_LIKE, HUMANEVAL_AUTOCOMPLETE_LIKE):
            out[dataset.name] = {
                name: dataset_eval(engine, dataset, n_queries=60)
                for name, engine in engines.items()
            }
        return out

    def test_ttft_speedups_near_paper(self, results):
        """Paper: geomean TTFT speedup 2.37x (Alpaca) and 2.63x (code)."""
        alpaca = geomean(
            [r.ttft_speedup_over("hybrid-static") for r in results["alpaca-like"].values()]
        )
        code = geomean(
            [
                r.ttft_speedup_over("hybrid-static")
                for r in results["humaneval-autocomplete-like"].values()
            ]
        )
        assert 1.8 < alpaca < 3.0
        assert 1.9 < code < 3.3
        assert code > alpaca  # the paper's ordering

    def test_facil_beats_dynamic_baseline(self, results):
        """§VI-C: FACIL outperforms even the optimized dynamic baseline."""
        for per_platform in results.values():
            for r in per_platform.values():
                assert r.ttft_speedup_over("hybrid-dynamic") > 1.1

    def test_ttft_close_to_soc_only(self, results):
        """§VI-C: FACIL achieves TTFT comparable to (or slightly better
        than) SoC-only inference."""
        for per_platform in results.values():
            for r in per_platform.values():
                assert r.ttft_speedup_over("soc-only") > 0.85

    def test_ttlt_crushes_soc_only(self, results):
        """Paper: 3.55x / 3.58x TTLT over SoC-only on the two datasets."""
        for per_platform in results.values():
            for r in per_platform.values():
                assert r.ttlt_speedup_over("soc-only") > 2.0

    def test_ttlt_gain_over_static_modest(self, results):
        """Paper: ~1.20x TTLT over the static baseline."""
        for per_platform in results.values():
            for r in per_platform.values():
                assert 1.02 < r.ttlt_speedup_over("hybrid-static") < 1.9


class TestTable1Shape:
    def test_fragmentation_trends(self):
        from repro.os.loadsim import simulate_weight_load

        model = int(16.2e9)
        low = simulate_weight_load(model, 2.5, 0.05, sim_model_bytes=32 << 20)
        worst = simulate_weight_load(model, 1.1, 0.75, sim_model_bytes=32 << 20)
        assert 1.05 < low.normalized < 1.3  # paper 1.17
        assert 1.6 < worst.normalized < 2.3  # paper 1.90
