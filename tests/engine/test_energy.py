"""Tests for the per-query energy accounting extension."""

import pytest

from repro.dram.energy import LPDDR5_ENERGY, gemv_energy_pj, sim_energy_pj
from repro.engine.energy import EnergyModel, query_energy
from repro.engine.policies import POLICIES, InferenceEngine, decode_on_pim
from repro.platforms.specs import ALL_PLATFORMS, JETSON_ORIN


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(JETSON_ORIN)


class TestDramEnergyModel:
    def test_io_energy_dominates_external_reads(self):
        internal = LPDDR5_ENERGY.read_pj(1024, external=False)
        external = LPDDR5_ENERGY.read_pj(1024, external=True)
        assert external > 2 * internal

    def test_gemv_energy_scales_with_matrix(self, engine):
        small = engine._costs["k_proj"].pim_gemv
        large = engine._costs["gate_proj"].pim_gemv
        banks = JETSON_ORIN.dram.org.total_banks
        assert gemv_energy_pj(large, banks, 8192, 4096) > gemv_energy_pj(
            small, banks, 8192, 4096
        )

    def test_sim_energy_counts_activations(self):
        import numpy as np
        from repro.core.controller import MemoryController
        from repro.dram.system import DramTimingSimulator, requests_from_fields

        controller = MemoryController(JETSON_ORIN.dram.org)
        sim = DramTimingSimulator(JETSON_ORIN.dram)
        pas = np.arange(0, 1 << 20, 32, dtype=np.int64)
        result = sim.run(requests_from_fields(controller.translate_array(pas, 0)))
        energy = sim_energy_pj(result, 32)
        # lower bound: pure array+IO read energy of the bytes moved
        assert energy >= LPDDR5_ENERGY.read_pj(result.bytes_moved)


class TestQueryEnergy:
    def test_policy_ordering(self, engine):
        """FACIL <= static < SoC-only: re-layout wastes energy, SoC decode
        pays external I/O for every weight byte."""
        soc = query_energy(engine, "soc-only", 24, 64)
        static = query_energy(engine, "hybrid-static", 24, 64)
        facil = query_energy(engine, "facil", 24, 64)
        assert facil.total_mj < static.total_mj < soc.total_mj

    def test_relayout_energy_only_in_hybrid_baselines(self, engine):
        assert query_energy(engine, "hybrid-static", 8, 8).relayout_mj > 0
        assert query_energy(engine, "hybrid-dynamic", 8, 8).relayout_mj > 0
        assert query_energy(engine, "facil", 8, 8).relayout_mj == 0
        assert query_energy(engine, "soc-only", 8, 8).relayout_mj == 0

    def test_decode_energy_scales_with_length(self, engine):
        short = query_energy(engine, "facil", 16, 8)
        long = query_energy(engine, "facil", 16, 64)
        assert long.decode_mj > 5 * short.decode_mj

    def test_pim_decode_cheaper_than_soc_decode(self, engine):
        """The I/O-free weight streaming is the decode energy win."""
        pim = query_energy(engine, "facil", 16, 64)
        soc = query_energy(engine, "soc-only", 16, 64)
        assert pim.decode_mj < 0.8 * soc.decode_mj

    def test_unknown_policy_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown policy 'quantum'"):
            query_energy(engine, "quantum", 24, 64)

    @pytest.mark.parametrize("prefill_len, decode_len", [(24, 0), (24, -5), (0, 8)])
    def test_non_positive_lengths_rejected(self, engine, prefill_len, decode_len):
        with pytest.raises(ValueError, match="prefill and decode lengths must be positive"):
            query_energy(engine, "facil", prefill_len, decode_len)
        with pytest.raises(ValueError, match="prefill and decode lengths must be positive"):
            engine.run_query("facil", prefill_len, decode_len)

    def test_custom_model(self, engine):
        expensive_io = EnergyModel(
            dram=LPDDR5_ENERGY.__class__(io_pj_per_byte=20.0)
        )
        base = query_energy(engine, "soc-only", 8, 8)
        costly = query_energy(engine, "soc-only", 8, 8, model=expensive_io)
        assert costly.total_mj > base.total_mj


def _reference_phase_pj(engine, plan, batch, on_pim, model):
    """One phase priced from its plan, the way ``query_energy`` did
    before a decode step's linear ops were priced once."""
    org = engine.platform.dram.org
    total = 0.0
    for spec in plan.linears:
        n = engine._gemm_batch(spec, batch)
        if on_pim:
            total += spec.count * n * gemv_energy_pj(
                engine._costs[spec.name].pim_gemv, org.total_banks,
                spec.in_features * spec.dtype_bytes, spec.out_features * 4,
                model.dram,
            )
        else:
            act_bytes = (spec.in_features + spec.out_features) * n * spec.dtype_bytes
            flops = 2.0 * spec.out_features * n * spec.in_features
            total += spec.count * (
                model.soc_stream_pj(spec.bytes_per_instance + act_bytes)
                + flops * model.soc_pj_per_flop
            )
    total += model.soc_stream_pj(plan.attention.bytes_moved)
    total += plan.attention.flops * model.soc_pj_per_flop
    return total


class TestDecodeStepsPricedFromOneLinearTerm:
    """``query_energy`` must match the per-step plan rebuild exactly
    (``==`` on every field) on every Table II platform and policy."""

    @pytest.mark.parametrize("platform", ALL_PLATFORMS, ids=lambda p: p.name)
    def test_matches_plan_per_step(self, platform):
        from repro.llm.inference import decode_step_plan, prefill_plan

        engine = InferenceEngine(platform)
        model = EnergyModel()
        for policy in POLICIES:
            on_pim = decode_on_pim(policy)
            for prefill_len, decode_len in ((1, 1), (7, 2), (128, 65), (513, 300)):
                got = query_energy(engine, policy, prefill_len, decode_len)
                prefill = _reference_phase_pj(
                    engine, prefill_plan(engine.model, prefill_len),
                    prefill_len, False, model,
                )
                decode = 0.0
                for step in range(1, decode_len):
                    plan = decode_step_plan(engine.model, prefill_len + step)
                    decode += _reference_phase_pj(engine, plan, 1, on_pim, model)
                assert got.prefill_mj == prefill / 1e9
                assert got.decode_mj == decode / 1e9
