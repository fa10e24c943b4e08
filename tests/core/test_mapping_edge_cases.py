"""Edge cases of the mapping builder: small chunks (leftover column
bits), chunks spanning multiple DRAM rows, and the GDDR6 preset."""

from repro.core.mapping import Field, pim_optimized_mapping
from repro.dram.config import DramOrganization, GDDR6_16000_TIMINGS, LPDDR5_6400_TIMINGS

ORG = DramOrganization(
    n_channels=2, ranks_per_channel=1, banks_per_rank=8,
    rows_per_bank=1 << 14, row_bytes=2048, transfer_bytes=32,
)


class TestSmallChunks:
    """Chunks smaller than one DRAM row leave column bits above the chunk
    (the `leftover_col` path): map_id bits fill the DRAM row first."""

    def test_half_row_chunk_layout(self):
        # 512-element fp16 chunk = 1 KB = half a DRAM row -> 1 leftover bit
        mapping = pim_optimized_mapping(
            ORG, chunk_rows=1, chunk_cols=512, dtype_bytes=2,
            map_id=2, n_bits=21,
        )
        col = mapping.positions(Field.COL)
        # 5 chunk-col bits right after the offset, the leftover 6th above
        assert col[:5] == tuple(range(5, 10))
        assert col[5] == 10
        # one true row bit between the leftover col bit and the PU bits
        assert mapping.positions(Field.ROW)[0] == 11

    def test_map_id_smaller_than_leftover_spills_above_pu_bits(self):
        # Regression: this used to raise "map_id=0 smaller than leftover
        # column bits" even though the selector legitimately picks
        # map_id=0 for matrix rows no larger than one chunk.  The surplus
        # column bits now sit above the PU bits instead.
        mapping = pim_optimized_mapping(
            ORG, chunk_rows=1, chunk_cols=512, dtype_bytes=2,
            map_id=0, n_bits=21,
        )
        col = mapping.positions(Field.COL)
        # 5 chunk-col bits right after the offset...
        assert col[:5] == tuple(range(5, 10))
        # ...the PU bits directly above the chunk, and the leftover
        # column bit above them.
        bank = mapping.positions(Field.BANK)
        assert min(bank) == 10
        assert col[5] > max(mapping.positions(Field.CHANNEL))
        # still a bijection
        for pa in (0, 54321, (1 << 21) - 1):
            assert mapping.encode(mapping.decode(pa)) == pa
        # a chunk row (1 KB) stays inside one bank
        pus = {
            (c.channel, c.rank, c.bank)
            for c in (mapping.decode(pa) for pa in range(0, 1024, 32))
        }
        assert len(pus) == 1

    def test_quarter_row_chunk(self):
        mapping = pim_optimized_mapping(
            ORG, chunk_rows=1, chunk_cols=256, dtype_bytes=2,
            map_id=3, n_bits=21,
        )
        # roundtrip still bijective
        for pa in (0, 1234, (1 << 21) - 1):
            assert mapping.encode(mapping.decode(pa)) == pa


class TestMultiRowChunks:
    """A chunk larger than one DRAM row claims row bits of its own."""

    def test_double_row_chunk(self):
        mapping = pim_optimized_mapping(
            ORG, chunk_rows=1, chunk_cols=2048, dtype_bytes=2,
            map_id=0, n_bits=21,
        )
        # 4 KB chunk = 2 DRAM rows: one row bit sits below the PU bits
        row = mapping.positions(Field.ROW)
        bank = mapping.positions(Field.BANK)
        assert row[0] == 11  # right above the 6 col bits
        assert min(bank) == 12

    def test_roundtrip(self):
        mapping = pim_optimized_mapping(
            ORG, chunk_rows=1, chunk_cols=2048, dtype_bytes=2,
            map_id=1, n_bits=21,
        )
        for pa in range(0, 1 << 21, 40961):
            assert mapping.encode(mapping.decode(pa)) == pa


class TestGddr6Preset:
    def test_faster_column_cadence(self):
        assert GDDR6_16000_TIMINGS.tCCD < LPDDR5_6400_TIMINGS.tCCD
        assert GDDR6_16000_TIMINGS.tRC < LPDDR5_6400_TIMINGS.tRC

    def test_aim_gddr6_full_rate(self):
        from repro.pim.config import AIM_GDDR6, AIM_LPDDR5

        assert AIM_GDDR6.mac_ccd_multiplier == 1
        assert AIM_LPDDR5.mac_ccd_multiplier == 2
        assert AIM_GDDR6.chunk_bytes == AIM_LPDDR5.chunk_bytes

    def test_gddr6_gemv_faster(self):
        from repro.core.selector import MatrixConfig
        from repro.dram.config import DramConfig, lpddr5_organization
        from repro.pim.config import AIM_GDDR6, AIM_LPDDR5
        from repro.pim.gemv import gemv_latency

        org = lpddr5_organization(256, 64)
        lpddr5 = gemv_latency(
            MatrixConfig(4096, 4096),
            DramConfig(org, LPDDR5_6400_TIMINGS),
            AIM_LPDDR5,
        )
        gddr6 = gemv_latency(
            MatrixConfig(4096, 4096),
            DramConfig(org, GDDR6_16000_TIMINGS).with_data_rate(16000),
            AIM_GDDR6,
        )
        assert gddr6.total_ns < lpddr5.total_ns / 2
