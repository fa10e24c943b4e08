"""Consistency checks across independent implementations of the same
quantity — places where two code paths must agree by construction."""

import pytest

from repro.core.mapping import conventional_mapping, max_map_id, pim_optimized_mapping
from repro.core.selector import MatrixConfig, select_mapping
from repro.engine.policies import InferenceEngine
from repro.llm.layers import total_linear_bytes
from repro.platforms.specs import ALL_PLATFORMS, JETSON_ORIN


class TestFormulaVsConstruction:
    @pytest.mark.parametrize("platform", ALL_PLATFORMS, ids=lambda p: p.name)
    def test_max_map_id_is_constructible_and_tight(self, platform):
        """The §IV-B formula counts the positions available for the
        PU-changing bits; with an AiM chunk consuming the column bits,
        the largest constructible MapID is exactly the formula minus the
        chunk's column-bit count."""
        org = platform.dram.org
        formula = max_map_id(org, 2 << 20)
        expected_max = formula - org.col_bits
        built = -1
        for map_id in range(formula + 2):
            try:
                pim_optimized_mapping(org, 1, 1024, 2, map_id, 21)
                built = map_id
            except ValueError:
                break
        assert built == expected_max


class TestEngineInternalConsistency:
    @pytest.fixture(scope="class")
    def engine(self):
        return InferenceEngine(JETSON_ORIN)

    def test_relayout_matches_linear_bytes(self, engine):
        """The engine's total re-layout cost must equal the model's total
        linear bytes priced by the cost model (read + write at peak)."""
        expected = (
            2.0
            * total_linear_bytes(engine.model)
            / JETSON_ORIN.peak_bw_gbps
        )
        assert engine.relayout_total_ns() == pytest.approx(expected, rel=1e-6)

    def test_breakdowns_sum_to_totals(self, engine):
        for policy in ("soc-only", "hybrid-static", "facil"):
            q = engine.run_query(policy, 32, 16)
            assert sum(q.breakdown.values()) == pytest.approx(q.ttlt_ns, rel=1e-9)

    def test_dynamic_equals_static_at_long_prefill(self, engine):
        """Beyond the crossover, hybrid-dynamic degenerates to the static
        baseline exactly."""
        threshold = engine.prefill_crossover()
        long_prefill = max(threshold * 2, 256)
        static = engine.run_query("hybrid-static", long_prefill, 8)
        dynamic = engine.run_query("hybrid-dynamic", long_prefill, 8)
        assert dynamic.ttft_ns == pytest.approx(static.ttft_ns)

    def test_facil_without_dynamic_is_pure_soc_path(self, engine):
        q = engine.run_query("facil", 4, 8, dynamic_offload=False)
        assert "prefill_soc" in q.breakdown
        assert "prefill_pim" not in q.breakdown


class TestTranslationAgreesWithItself:
    def test_conventional_equals_pim_with_identity_layout(self):
        """A 'PIM' mapping whose chunk equals the whole interleave unit
        of the conventional spec is still a valid permutation — and both
        translate the zero page identically at coordinate zero."""
        org = JETSON_ORIN.dram.org
        conv = conventional_mapping(org, 21)
        pim = pim_optimized_mapping(org, 1, 1024, 2, 1, 21)
        assert conv.decode(0) == pim.decode(0)

    def test_selector_selection_matches_allocated_mapping(self):
        from repro.core.selector import build_selected_mapping, pu_order_for

        for cols in (1024, 4096, 14336):
            matrix = MatrixConfig(64, cols)
            selection = select_mapping(matrix, JETSON_ORIN.dram.org, JETSON_ORIN.pim)
            mapping = build_selected_mapping(
                matrix, JETSON_ORIN.dram.org, JETSON_ORIN.pim
            )
            rebuilt = pim_optimized_mapping(
                JETSON_ORIN.dram.org, 1, 1024, 2, selection.map_id, 21,
                pu_order=pu_order_for(selection),
            )
            assert mapping.fields == rebuilt.fields


class TestControllerTableSharedAcrossTensors:
    def test_distinct_selections_share_one_table(self):
        from repro.core.pimalloc import PimSystem
        from repro.dram.config import DramOrganization
        from repro.pim.config import AIM_LPDDR5

        org = DramOrganization(
            n_channels=4, ranks_per_channel=2, banks_per_rank=16,
            rows_per_bank=512, row_bytes=2048, transfer_bytes=32,
        )
        system = PimSystem.build(org, AIM_LPDDR5, functional=False)
        shapes = [(8, 1024), (8, 2048), (8, 4096), (8, 8192), (8, 16384)]
        ids = [system.pimalloc(MatrixConfig(r, c)).map_id for r, c in shapes]
        # table stays bounded: at most one entry per distinct mapping
        assert len(system.controller.table) == len(set(ids)) + 1
