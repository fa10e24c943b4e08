"""Tests for the mapping selector (paper §IV-C, Figs. 9 and 10)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mapping import Field
from repro.core.selector import (
    MatrixConfig,
    build_selected_mapping,
    pu_order_for,
    select_mapping,
)
from repro.dram.config import DramOrganization, lpddr5_organization
from repro.pim.config import AIM_LPDDR5, HBM_PIM

JETSON_ORG = lpddr5_organization(bus_width_bits=256, capacity_gb=64)
IPHONE_ORG = lpddr5_organization(bus_width_bits=64, capacity_gb=8)
HUGE = 2 << 20


class TestMatrixConfig:
    def test_padding(self):
        m = MatrixConfig(rows=4096, cols=14336)
        assert m.padded_cols == 16384
        assert m.padded_row_bytes == 32768

    def test_pow2_cols_unpadded(self):
        m = MatrixConfig(rows=10, cols=4096)
        assert m.padded_cols == 4096

    def test_nbytes(self):
        m = MatrixConfig(rows=8, cols=100, dtype_bytes=2)
        assert m.nbytes == 1600
        assert m.padded_nbytes == 8 * 128 * 2

    @pytest.mark.parametrize("rows,cols", [(0, 4), (4, 0), (-1, 4)])
    def test_rejects_bad_dims(self, rows, cols):
        with pytest.raises(ValueError):
            MatrixConfig(rows=rows, cols=cols)


class TestSelectorNoPartition:
    def test_fig9_no_partition(self):
        """iPhone org: 128 banks -> 16 KB per bank per page; a 4096-col
        FP16 row (8 KB) fits -> map_id = log2(8KB / 2KB) = 2."""
        sel = select_mapping(MatrixConfig(64, 4096), IPHONE_ORG, AIM_LPDDR5, HUGE)
        assert not sel.needs_partition
        assert sel.map_id == 2
        assert sel.partitions_per_row == 1
        assert sel.bytes_per_bank_per_page == 16384

    def test_row_equal_to_chunk(self):
        sel = select_mapping(MatrixConfig(64, 1024), IPHONE_ORG, AIM_LPDDR5, HUGE)
        assert sel.map_id == 0

    def test_row_smaller_than_chunk_clamps_to_zero(self):
        sel = select_mapping(MatrixConfig(64, 256), IPHONE_ORG, AIM_LPDDR5, HUGE)
        assert sel.map_id == 0
        assert not sel.needs_partition


class TestSelectorPartition:
    def test_fig10_partition(self):
        """Jetson org: 512 banks -> 4 KB per bank; an 8 KB row needs two
        PUs; map_id = log2(4KB / 2KB) = 1."""
        sel = select_mapping(MatrixConfig(4096, 4096), JETSON_ORG, AIM_LPDDR5, HUGE)
        assert sel.needs_partition
        assert sel.map_id == 1
        assert sel.partitions_per_row == 2

    def test_large_ffn_row(self):
        """Llama3 down_proj on Jetson: 14336 cols -> padded 32 KB row ->
        8 partitions."""
        sel = select_mapping(MatrixConfig(4096, 14336), JETSON_ORG, AIM_LPDDR5, HUGE)
        assert sel.needs_partition
        assert sel.partitions_per_row == 8
        assert sel.map_id == 1

    def test_partitioned_pu_order_spreads_channels(self):
        sel = select_mapping(MatrixConfig(4096, 4096), JETSON_ORG, AIM_LPDDR5, HUGE)
        assert pu_order_for(sel) == (Field.CHANNEL, Field.RANK, Field.BANK)

    def test_unpartitioned_pu_order_is_bank_first(self):
        sel = select_mapping(MatrixConfig(64, 4096), IPHONE_ORG, AIM_LPDDR5, HUGE)
        assert pu_order_for(sel) == (Field.BANK, Field.RANK, Field.CHANNEL)


class TestSelectorHbmPim:
    def test_group_of_chunk_rows(self):
        """HBM-PIM chunk (8, 128): the per-bank group is 8 rows; a
        4096-col row makes the group 64 KB > 16 KB -> partitioned."""
        sel = select_mapping(MatrixConfig(64, 4096), IPHONE_ORG, HBM_PIM, HUGE)
        assert sel.needs_partition
        assert sel.partitions_per_row == 4

    def test_small_matrix_unpartitioned(self):
        sel = select_mapping(MatrixConfig(64, 512), IPHONE_ORG, HBM_PIM, HUGE)
        assert not sel.needs_partition
        assert sel.map_id == 2  # log2(1KB row / 256B chunk row)


class TestSelectorErrors:
    def test_page_too_small_for_banks(self):
        org = DramOrganization(
            n_channels=8, ranks_per_channel=2, banks_per_rank=16,
            rows_per_bank=1 << 16, row_bytes=2048, transfer_bytes=32,
        )
        with pytest.raises(ValueError, match="chunk row"):
            select_mapping(MatrixConfig(4, 4096), org, AIM_LPDDR5, 256 * 1024)


class TestBuildSelectedMapping:
    def test_mapping_is_consistent_with_selection(self):
        mapping = build_selected_mapping(
            MatrixConfig(64, 4096), IPHONE_ORG, AIM_LPDDR5, HUGE
        )
        assert mapping.matches_organization(IPHONE_ORG)
        assert mapping.n_bits == 21

    def test_partitioned_mapping_channel_first(self):
        mapping = build_selected_mapping(
            MatrixConfig(4096, 4096), JETSON_ORG, AIM_LPDDR5, HUGE
        )
        ch = mapping.positions(Field.CHANNEL)
        bk = mapping.positions(Field.BANK)
        assert max(ch) < min(bk)


class TestSelectorProperties:
    @given(
        rows=st.integers(min_value=1, max_value=1 << 14),
        cols=st.integers(min_value=16, max_value=1 << 15),
    )
    @settings(max_examples=80, deadline=None)
    def test_selection_always_buildable(self, rows, cols):
        """Whatever the matrix shape, the selector's choice must yield a
        constructible mapping (the end of Fig. 9 never dangles)."""
        matrix = MatrixConfig(rows=rows, cols=cols)
        for org in (JETSON_ORG, IPHONE_ORG):
            mapping = build_selected_mapping(matrix, org, AIM_LPDDR5, HUGE)
            assert mapping.n_bits == 21

    @given(cols=st.integers(min_value=16, max_value=1 << 15))
    @settings(max_examples=60, deadline=None)
    def test_partition_arithmetic(self, cols):
        matrix = MatrixConfig(rows=32, cols=cols)
        sel = select_mapping(matrix, JETSON_ORG, AIM_LPDDR5, HUGE)
        if sel.needs_partition:
            assert (
                sel.partitions_per_row * sel.bytes_per_bank_per_page
                >= matrix.padded_row_bytes
            )
        else:
            assert matrix.padded_row_bytes <= sel.bytes_per_bank_per_page
