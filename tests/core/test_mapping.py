"""Tests for the PA-to-DA mapping formulation (paper §IV-B)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mapping import (
    AddressMapping,
    Field,
    conventional_mapping,
    max_map_id,
    pim_optimized_mapping,
)
from repro.dram.address import DramCoord
from repro.dram.config import TINY_ORG, DramOrganization, lpddr5_organization

JETSON_ORG = lpddr5_organization(bus_width_bits=256, capacity_gb=64)
PAGE_BITS = 21  # 2 MB huge pages


class TestAddressMappingValidation:
    def test_requires_full_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            AddressMapping("bad", 4, {Field.ROW: (0, 1), Field.COL: (3,)})

    def test_rejects_duplicate_positions(self):
        with pytest.raises(ValueError, match="permutation"):
            AddressMapping(
                "dup", 3, {Field.ROW: (0, 1), Field.COL: (1,), Field.BANK: (2,)}
            )

    def test_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown field"):
            AddressMapping("bad", 1, {"nonsense": (0,)})


class TestConventionalMapping:
    def test_field_widths_match_org(self):
        mapping = conventional_mapping(JETSON_ORG, PAGE_BITS)
        assert mapping.matches_organization(JETSON_ORG)
        assert mapping.field_width(Field.CHANNEL) == 4
        assert mapping.field_width(Field.BANK) == 4
        assert mapping.field_width(Field.COL) == 6
        assert mapping.field_width(Field.OFFSET) == 5
        assert mapping.field_width(Field.RANK) == 1
        assert mapping.row_bits == 21 - 20

    def test_lsb_order_follows_spec(self):
        # row rank col bank channel (MSB..LSB) => LSB after offset: channel
        mapping = conventional_mapping(JETSON_ORG, PAGE_BITS)
        assert mapping.positions(Field.OFFSET) == tuple(range(5))
        assert mapping.positions(Field.CHANNEL) == tuple(range(5, 9))
        assert mapping.positions(Field.BANK) == tuple(range(9, 13))
        assert mapping.positions(Field.COL) == tuple(range(13, 19))
        assert mapping.positions(Field.RANK) == (19,)
        assert mapping.positions(Field.ROW) == (20,)

    def test_custom_spec(self):
        mapping = conventional_mapping(
            TINY_ORG, PAGE_BITS, spec="row col rank bank channel"
        )
        # channel right above the offset bits
        assert mapping.positions(Field.CHANNEL) == (5,)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="spec"):
            conventional_mapping(TINY_ORG, PAGE_BITS, spec="row col bank channel")

    def test_page_too_small_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            conventional_mapping(JETSON_ORG, 10)

    def test_describe_renders_msb_to_lsb(self):
        text = conventional_mapping(JETSON_ORG, PAGE_BITS).describe()
        assert text == "row[1]:rank[1]:col[6]:bank[4]:channel[4]:offset[5]"

    def test_roundtrip(self):
        mapping = conventional_mapping(JETSON_ORG, PAGE_BITS)
        for pa in (0, 1, 31, 32, 0x12345, (1 << 21) - 1):
            assert mapping.encode(mapping.decode(pa)) == pa


class TestMaxMapId:
    def test_paper_worst_case_is_13(self):
        """§IV-B: single channel/rank, 8-bank DRAM, 2 MB pages, 32 B
        transfers gives log2(2MB / (8 * 32B)) = 13."""
        org = DramOrganization(
            n_channels=1,
            ranks_per_channel=1,
            banks_per_rank=8,
            rows_per_bank=1 << 16,
            row_bytes=2048,
            transfer_bytes=32,
        )
        assert max_map_id(org, 2 << 20) == 13

    def test_jetson_value(self):
        # 512 banks * 32 B = 16 KB per "slot": log2(2MB/16KB) = 7
        assert max_map_id(JETSON_ORG, 2 << 20) == 7

    def test_page_too_small(self):
        with pytest.raises(ValueError):
            max_map_id(JETSON_ORG, 1024)


class TestAimMapping:
    def test_fig8_layout(self):
        """Fig. 8a: offset, chunk-col bits, map_id row bits, PU bits
        (bank, rank, channel), remaining row bits."""
        mapping = pim_optimized_mapping(
            JETSON_ORG, chunk_rows=1, chunk_cols=1024, dtype_bytes=2,
            map_id=1, n_bits=PAGE_BITS,
        )
        assert mapping.positions(Field.OFFSET) == tuple(range(5))
        assert mapping.positions(Field.COL) == tuple(range(5, 11))
        # map_id=1 row bit right above the chunk bits
        assert 11 in mapping.positions(Field.ROW)
        assert mapping.positions(Field.BANK) == tuple(range(12, 16))
        assert mapping.positions(Field.RANK) == (16,)
        assert mapping.positions(Field.CHANNEL) == tuple(range(17, 21))

    def test_map_id_zero(self):
        mapping = pim_optimized_mapping(
            JETSON_ORG, 1, 1024, 2, map_id=0, n_bits=PAGE_BITS
        )
        assert mapping.positions(Field.BANK) == tuple(range(11, 15))
        assert mapping.row_bits == 1

    def test_map_id_too_large_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            pim_optimized_mapping(JETSON_ORG, 1, 1024, 2, map_id=2, n_bits=PAGE_BITS)

    def test_pu_order_partitioned(self):
        mapping = pim_optimized_mapping(
            JETSON_ORG, 1, 1024, 2, map_id=1, n_bits=PAGE_BITS,
            pu_order=(Field.CHANNEL, Field.RANK, Field.BANK),
        )
        assert mapping.positions(Field.CHANNEL) == tuple(range(12, 16))
        assert mapping.positions(Field.BANK) == tuple(range(17, 21))

    def test_bad_pu_order_rejected(self):
        with pytest.raises(ValueError, match="pu_order"):
            pim_optimized_mapping(
                JETSON_ORG, 1, 1024, 2, 1, PAGE_BITS,
                pu_order=(Field.CHANNEL, Field.CHANNEL, Field.BANK),
            )

    def test_roundtrip_all_map_ids(self):
        for map_id in range(2):
            mapping = pim_optimized_mapping(JETSON_ORG, 1, 1024, 2, map_id, PAGE_BITS)
            for pa in (0, 77, 2048, (1 << 21) - 1):
                assert mapping.encode(mapping.decode(pa)) == pa

    def test_chunk_contiguity_in_bank(self):
        """Consecutive PAs within one chunk share (channel, rank, bank,
        row) — the §II-C requirement."""
        mapping = pim_optimized_mapping(JETSON_ORG, 1, 1024, 2, 1, PAGE_BITS)
        base = mapping.decode(0)
        for pa in range(0, 2048, 32):
            coord = mapping.decode(pa)
            assert (coord.channel, coord.rank, coord.bank, coord.row) == (
                base.channel, base.rank, base.bank, base.row,
            )

    def test_default_name(self):
        mapping = pim_optimized_mapping(JETSON_ORG, 1, 1024, 2, 1, PAGE_BITS)
        assert mapping.name == "aim-map1"


class TestHbmPimMapping:
    def test_fig8b_layout(self):
        """Fig. 8b: 3 chunk-col bits, map_id row bits, 3 chunk-row col
        bits, then PU bits."""
        mapping = pim_optimized_mapping(
            JETSON_ORG, chunk_rows=8, chunk_cols=128, dtype_bytes=2,
            map_id=1, n_bits=PAGE_BITS,
        )
        col_positions = mapping.positions(Field.COL)
        assert col_positions[:3] == (5, 6, 7)  # chunk columns
        assert col_positions[3:] == (9, 10, 11)  # chunk rows
        assert 8 in mapping.positions(Field.ROW)
        assert mapping.positions(Field.BANK) == tuple(range(12, 16))
        assert mapping.name == "hbmpim-map1"

    def test_chunk_needs_more_col_bits_than_row_rejected(self):
        with pytest.raises(ValueError, match="column bits"):
            pim_optimized_mapping(
                JETSON_ORG, chunk_rows=64, chunk_cols=128, dtype_bytes=2,
                map_id=0, n_bits=PAGE_BITS,
            )

    def test_chunk_rows_map_to_same_dram_row(self):
        """Elements of one chunk (8 rows x 128 cols) stay in one DRAM row."""
        mapping = pim_optimized_mapping(JETSON_ORG, 8, 128, 2, 0, PAGE_BITS)
        # PA stride between chunk rows is 2**(offset+cc+map_id) = 256 B
        base = mapping.decode(0)
        for chunk_row in range(8):
            coord = mapping.decode(chunk_row * 256)
            assert coord.row == base.row
            assert coord.bank == base.bank


class TestMappingValidation:
    def test_chunk_smaller_than_transfer_rejected(self):
        with pytest.raises(ValueError, match="smaller than a DRAM"):
            pim_optimized_mapping(JETSON_ORG, 1, 8, 2, 0, PAGE_BITS)

    def test_negative_map_id_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            pim_optimized_mapping(JETSON_ORG, 1, 1024, 2, -1, PAGE_BITS)

    def test_non_pow2_chunk_rejected(self):
        with pytest.raises(ValueError, match="powers of two"):
            pim_optimized_mapping(JETSON_ORG, 3, 1024, 2, 0, PAGE_BITS)


@st.composite
def _org_and_map(draw):
    ch = draw(st.sampled_from([1, 2, 4, 8]))
    rk = draw(st.sampled_from([1, 2]))
    bk = draw(st.sampled_from([4, 8, 16]))
    org = DramOrganization(
        n_channels=ch,
        ranks_per_channel=rk,
        banks_per_rank=bk,
        rows_per_bank=1 << 16,
        row_bytes=2048,
        transfer_bytes=32,
    )
    ceiling = 21 - org.offset_bits - org.interleave_bits() - org.col_bits
    map_id = draw(st.integers(min_value=0, max_value=max(0, ceiling)))
    return org, map_id


class TestMappingProperties:
    @given(_org_and_map(), st.integers(min_value=0, max_value=(1 << 21) - 1))
    @settings(max_examples=60, deadline=None)
    def test_pim_mapping_bijective(self, org_map, pa):
        org, map_id = org_map
        mapping = pim_optimized_mapping(
            org, 1, org.row_bytes // 2, 2, map_id, 21
        )
        coord = mapping.decode(pa)
        assert mapping.encode(coord) == pa
        DramCoord(
            channel=coord.channel, rank=coord.rank, bank=coord.bank,
            row=0, col=coord.col, offset=coord.offset,
        ).validate(org)

    @given(_org_and_map())
    @settings(max_examples=40, deadline=None)
    def test_field_widths_always_match_org(self, org_map):
        org, map_id = org_map
        mapping = pim_optimized_mapping(org, 1, org.row_bytes // 2, 2, map_id, 21)
        assert mapping.matches_organization(org)
