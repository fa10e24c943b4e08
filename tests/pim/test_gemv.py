"""Tests for the analytic PIM GEMV timing model, cross-checked against
the functional executor's operation counts."""

import numpy as np
import pytest

from repro.core.pimalloc import PimSystem
from repro.core.selector import MatrixConfig
from repro.dram.config import DramConfig, LPDDR5_6400_TIMINGS, lpddr5_organization
from repro.pim.config import AIM_LPDDR5
from repro.pim.functional import pim_gemv
from repro.pim.gemv import gemv_latency

JETSON = DramConfig(
    lpddr5_organization(bus_width_bits=256, capacity_gb=64), LPDDR5_6400_TIMINGS
)


class TestOperationCounts:
    def test_llama_qproj_counts(self):
        lat = gemv_latency(MatrixConfig(4096, 4096), JETSON, AIM_LPDDR5)
        assert lat.partitions_per_row == 2
        assert lat.rows_per_bank == 16
        assert lat.segments_per_row == 4
        assert lat.chunk_segments_per_bank == 32
        assert lat.activates_per_bank == 32
        assert lat.weight_bytes_streamed == 4096 * 4096 * 2  # padded == exact here

    def test_soc_reduce_bytes_only_when_partitioned(self):
        partitioned = gemv_latency(MatrixConfig(4096, 4096), JETSON, AIM_LPDDR5)
        assert partitioned.soc_reduce_bytes > 0
        small = gemv_latency(MatrixConfig(512, 1024), JETSON, AIM_LPDDR5)
        assert small.partitions_per_row == 1
        assert small.soc_reduce_bytes == 0

    def test_out_reg_pressure_multiplies_gb_loads(self):
        few_regs = gemv_latency(
            MatrixConfig(14336, 4096), JETSON, AIM_LPDDR5, out_regs_per_pu=4
        )
        many_regs = gemv_latency(
            MatrixConfig(14336, 4096), JETSON, AIM_LPDDR5, out_regs_per_pu=64
        )
        assert few_regs.gb_loads_per_rank > many_regs.gb_loads_per_rank


class TestLatencyShape:
    def test_monotone_in_matrix_size(self):
        small = gemv_latency(MatrixConfig(1024, 4096), JETSON, AIM_LPDDR5)
        large = gemv_latency(MatrixConfig(14336, 4096), JETSON, AIM_LPDDR5)
        assert large.total_ns > small.total_ns

    def test_internal_bandwidth_exceeds_external(self):
        """The whole point of near-bank PIM: aggregate internal bandwidth
        well above the external bus."""
        lat = gemv_latency(MatrixConfig(4096, 4096), JETSON, AIM_LPDDR5)
        assert lat.effective_internal_gbps > 2 * JETSON.org.peak_bandwidth_gbps

    def test_overlap_reduces_total(self):
        overlapped = gemv_latency(
            MatrixConfig(4096, 4096), JETSON, AIM_LPDDR5, overlap_gb_loads=True
        )
        serial = gemv_latency(
            MatrixConfig(4096, 4096), JETSON, AIM_LPDDR5, overlap_gb_loads=False
        )
        assert overlapped.total_ns <= serial.total_ns

    def test_breakdown_sums_to_total(self):
        lat = gemv_latency(
            MatrixConfig(4096, 4096), JETSON, AIM_LPDDR5, overlap_gb_loads=False
        )
        assert lat.total_ns == pytest.approx(
            lat.gb_load_ns + lat.mac_ns + lat.output_ns
        )


class TestCrossCheckWithFunctional:
    def test_counts_match_functional_executor(self, rng):
        """The analytic model's per-bank counts must agree with what the
        functional machine actually does."""
        from repro.dram.config import DramOrganization

        org = DramOrganization(
            n_channels=4, ranks_per_channel=2, banks_per_rank=16,
            rows_per_bank=512, row_bytes=2048, transfer_bytes=32,
        )
        config = DramConfig(org, LPDDR5_6400_TIMINGS)
        system = PimSystem.build(org, AIM_LPDDR5)
        matrix = MatrixConfig(rows=256, cols=4096)
        tensor = system.pimalloc(matrix)
        tensor.store(rng.standard_normal((256, 4096)).astype(np.float16))
        _, stats = pim_gemv(tensor, rng.standard_normal(4096).astype(np.float16))

        lat = gemv_latency(matrix, config, AIM_LPDDR5, selection=tensor.selection)
        total_banks = org.total_banks
        assert stats.chunks_processed == lat.chunk_segments_per_bank * total_banks
        assert stats.rows_activated == lat.activates_per_bank * total_banks
        # functional executor has no register pressure: its GB loads are
        # the single-pass lower bound
        n_rank_groups = org.n_channels * org.ranks_per_channel
        assert stats.total_gb_loads == lat.segments_per_row // lat.partitions_per_row * n_rank_groups
