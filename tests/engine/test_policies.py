"""Tests for the four execution policies (paper §VI)."""

import pytest

from repro.engine.policies import POLICIES, InferenceEngine
from repro.platforms.specs import IDEAPAD, JETSON_ORIN, MACBOOK_PRO


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(JETSON_ORIN)


class TestConstruction:
    def test_model_defaults_from_platform(self, engine):
        assert engine.model.name == "llama3-8b"

    def test_explicit_model(self):
        eng = InferenceEngine(IDEAPAD)
        assert eng.model.name == "opt-6.7b"

    def test_costs_precomputed_per_spec(self, engine):
        assert set(engine._costs) == {
            "q_proj", "k_proj", "v_proj", "o_proj",
            "gate_proj", "up_proj", "down_proj", "lm_head",
        }


class TestPhasePrimitives:
    def test_relayout_total_scale(self, engine):
        """Re-layout of all Llama3-8B linears at full Jetson bandwidth:
        ~150 ms (the Fig. 6 inflation source)."""
        assert 0.10 < engine.relayout_total_ns() / 1e9 < 0.20

    def test_prefill_memory_bound_at_small_lengths(self, engine):
        """Jetson's ridge point is ~200 flop/byte: prefill times for
        lengths 8..64 are all pinned at the weight-read floor."""
        t8 = engine.soc_prefill_ns(8)
        t64 = engine.soc_prefill_ns(64)
        assert t64 < 1.15 * t8

    def test_facil_layout_slowdown_applied(self, engine):
        plain = engine.soc_prefill_ns(64)
        facil = engine.soc_prefill_ns(64, pim_layout=True)
        assert plain < facil < plain * 1.05

    def test_pim_decode_step_beats_soc(self, engine):
        assert engine.pim_decode_step_ns(128) < engine.soc_decode_step_ns(128) / 3

    def test_decode_step_grows_with_context(self, engine):
        assert engine.pim_decode_step_ns(2048) > engine.pim_decode_step_ns(64)


class TestPolicies:
    def test_unknown_policy_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown policy"):
            engine.run_query("magic", 64, 64)

    def test_bad_lengths_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.run_query("facil", 0, 64)

    def test_static_ttft_is_relayout_plus_gemm(self, engine):
        q = engine.run_query("hybrid-static", 64, 64)
        assert q.ttft_ns == pytest.approx(
            q.breakdown["relayout"] + q.breakdown["prefill_soc"]
        )

    def test_facil_beats_static_ttft(self, engine):
        static = engine.run_query("hybrid-static", 64, 64)
        facil = engine.run_query("facil", 64, 64, dynamic_offload=False)
        assert facil.ttft_ns < static.ttft_ns / 2

    def test_dynamic_never_worse_than_static(self, engine):
        for prefill in (4, 16, 64, 256):
            static = engine.run_query("hybrid-static", prefill, 16)
            dynamic = engine.run_query("hybrid-dynamic", prefill, 16)
            assert dynamic.ttft_ns <= static.ttft_ns + 1e-6

    def test_soc_only_has_fast_ttft_slow_ttlt(self, engine):
        """§VI-C: SoC-only gives competitive TTFT but suffers badly in
        TTLT because decode is memory-bound."""
        soc = engine.run_query("soc-only", 16, 64)
        facil = engine.run_query("facil", 16, 64)
        assert soc.ttft_ns < 2 * facil.ttft_ns
        assert soc.ttlt_ns > 2 * facil.ttlt_ns

    def test_ttlt_includes_decode(self, engine):
        short = engine.run_query("facil", 64, 2)
        long = engine.run_query("facil", 64, 64)
        assert long.ttlt_ns > short.ttlt_ns
        assert long.ttft_ns == pytest.approx(short.ttft_ns)

    def test_single_token_decode_means_ttlt_equals_ttft(self, engine):
        q = engine.run_query("facil", 64, 1)
        assert q.ttlt_ns == pytest.approx(q.ttft_ns)

    def test_all_policies_produce_breakdowns(self, engine):
        for policy in POLICIES:
            q = engine.run_query(policy, 32, 8)
            assert q.breakdown
            assert q.ttlt_ns >= q.ttft_ns


class TestDynamicOffload:
    def test_crossover_profile(self, engine):
        """Re-layout costs ~150 ms; PIM prefill costs ~23 ms/token: the
        SoC path wins somewhere in the tens of tokens."""
        threshold = engine.prefill_crossover()
        assert 2 <= threshold <= 512

    def test_facil_crossover_below_hybrid(self, engine):
        """Without re-layout on its SoC path, FACIL switches to the SoC
        at a shorter prefill than the hybrid baseline."""
        assert engine.facil_crossover() <= engine.prefill_crossover()

    def test_facil_dynamic_helps_tiny_prefill(self, engine):
        fixed = engine.run_query("facil", 1, 8, dynamic_offload=False)
        dynamic = engine.run_query("facil", 1, 8, dynamic_offload=True)
        assert dynamic.ttft_ns <= fixed.ttft_ns

    @pytest.mark.parametrize("max_len", [0, -5])
    def test_crossovers_reject_an_empty_range(self, engine, max_len):
        for crossover in (engine.prefill_crossover, engine.facil_crossover):
            with pytest.raises(ValueError, match="max_len"):
                crossover(max_len)


class TestPricePrefill:
    def test_total_is_relayout_plus_compute(self, engine):
        for policy in POLICIES:
            price = engine.price_prefill(policy, 64)
            assert price.total_ns == price.relayout_ns + price.compute_ns
            assert engine.run_query(policy, 64, 8).ttft_ns == price.total_ns

    def test_only_hybrid_soc_prefills_pay_relayout(self, engine):
        relayout = engine.relayout_total_ns()
        assert engine.price_prefill("hybrid-static", 8).relayout_ns == relayout
        assert engine.price_prefill("hybrid-dynamic", 512).relayout_ns == relayout
        assert engine.price_prefill("hybrid-dynamic", 1).resource == "pim"
        assert engine.price_prefill("hybrid-dynamic", 1).relayout_ns == 0.0
        for policy in ("soc-only", "facil"):
            assert engine.price_prefill(policy, 512).relayout_ns == 0.0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_disallowed_pim_keeps_prefill_on_soc(self, engine, policy):
        for n in (1, 2, 8, 512):
            assert engine.price_prefill(policy, n, allow_pim=False).resource == "soc"

    def test_facil_without_pim_is_soc_gemm_on_pim_layout(self, engine):
        price = engine.price_prefill("facil", 1, allow_pim=False)
        assert price.compute_ns == engine.soc_prefill_ns(1, pim_layout=True)
        assert engine.price_prefill("facil", 1).resource == "pim"

    def test_context_lengthens_soc_attention(self, engine):
        for policy in ("soc-only", "hybrid-static"):
            fresh = engine.price_prefill(policy, 16)
            cached = engine.price_prefill(policy, 16, context=512)
            assert cached.total_ns > fresh.total_ns
        assert engine.soc_prefill_ns(16, context=0) == engine.soc_prefill_ns(16)

    def test_crossovers_are_where_prefill_leaves_pim(self, engine):
        for policy, crossover in (
            ("hybrid-dynamic", engine.prefill_crossover()),
            ("facil", engine.facil_crossover()),
        ):
            assert engine.price_prefill(policy, crossover).resource == "soc"
            assert engine.price_prefill(policy, crossover // 2).resource == "pim"

    def test_breakdown_names_the_unit(self, engine):
        assert engine.price_prefill("hybrid-dynamic", 1).breakdown() == {
            "prefill_pim": engine.pim_prefill_ns(1)
        }
        assert list(engine.price_prefill("hybrid-static", 8).breakdown()) == [
            "relayout", "prefill_soc",
        ]

    def test_bad_inputs_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown policy"):
            engine.price_prefill("quantum", 8)
        with pytest.raises(ValueError, match="prefill length must be positive"):
            engine.price_prefill("facil", 0)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_negative_context_rejected(self, engine, policy):
        for context in (-1, -20, -10**6):
            with pytest.raises(ValueError, match="context"):
                engine.price_prefill(policy, 10, context=context)
            with pytest.raises(ValueError, match="context"):
                engine.soc_prefill_ns(10, policy == "facil", context)


class TestCrossPlatform:
    def test_macbook_diminishes_faster_than_jetson(self):
        """Fig. 13's mechanism: the lower the ridge point, the faster the
        TTFT speedup decays with prefill length."""
        jetson = InferenceEngine(JETSON_ORIN)
        macbook = InferenceEngine(MACBOOK_PRO)

        def decay(engine):
            s8 = (
                engine.run_query("hybrid-static", 8, 8).ttft_ns
                / engine.run_query("facil", 8, 8, dynamic_offload=False).ttft_ns
            )
            s128 = (
                engine.run_query("hybrid-static", 128, 8).ttft_ns
                / engine.run_query("facil", 128, 8, dynamic_offload=False).ttft_ns
            )
            return s128 / s8

        assert decay(macbook) < decay(jetson)
        assert MACBOOK_PRO.soc.ridge_point_flop_per_byte < JETSON_ORIN.soc.ridge_point_flop_per_byte
