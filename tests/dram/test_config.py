"""Tests for DRAM organization/timing configuration."""

import pytest

from repro.dram.config import (
    DramConfig,
    DramOrganization,
    LPDDR5_6400_TIMINGS,
    TINY_ORG,
    lpddr5_organization,
)


class TestOrganizationValidation:
    def test_rejects_non_pow2(self):
        with pytest.raises(ValueError, match="power of two"):
            DramOrganization(3, 1, 4, 16)

    def test_rejects_transfer_bigger_than_row(self):
        with pytest.raises(ValueError, match="row_bytes"):
            DramOrganization(1, 1, 4, 16, row_bytes=32, transfer_bytes=64)


class TestDerivedGeometry:
    def test_tiny_org(self):
        assert TINY_ORG.total_banks == 8
        assert TINY_ORG.capacity_bytes == 8 << 20
        assert TINY_ORG.cols_per_row == 8
        assert TINY_ORG.offset_bits == 5
        assert TINY_ORG.col_bits == 3
        assert TINY_ORG.bank_bits == 2
        assert TINY_ORG.rank_bits == 0
        assert TINY_ORG.channel_bits == 1
        assert TINY_ORG.interleave_bits() == 3

    def test_rows_per_span(self):
        org = lpddr5_organization(bus_width_bits=256, capacity_gb=64)
        # 2 MB page / (512 banks * 2 KB row) = 2 rows per bank
        assert org.rows_per_span(2 << 20) == 2

    def test_rows_per_span_too_small(self):
        org = lpddr5_organization(bus_width_bits=256, capacity_gb=64)
        with pytest.raises(ValueError, match="too small"):
            org.rows_per_span(1024)


class TestBandwidth:
    @pytest.mark.parametrize(
        "bus,rate,expected",
        [
            (256, 6400, 204.8),  # Jetson AGX Orin
            (512, 6400, 409.6),  # MacBook Pro M3 Max
            (64, 7467, 59.736),  # IdeaPad Slim 5
            (64, 6400, 51.2),  # iPhone 15 Pro
        ],
    )
    def test_table2_peak_bandwidths(self, bus, rate, expected):
        org = lpddr5_organization(bus_width_bits=bus, capacity_gb=8, data_rate_mbps=rate)
        assert org.peak_bandwidth_gbps == pytest.approx(expected, rel=1e-3)

    def test_channel_bandwidth(self):
        org = lpddr5_organization(bus_width_bits=256, capacity_gb=64)
        assert org.channel_bandwidth_gbps == pytest.approx(12.8)


class TestLpddr5Organization:
    def test_channel_count_from_bus_width(self):
        assert lpddr5_organization(256, 64).n_channels == 16
        assert lpddr5_organization(64, 8).n_channels == 4

    def test_capacity_preserved(self):
        org = lpddr5_organization(256, 64)
        assert org.capacity_bytes == 64 << 30

    def test_rejects_odd_bus(self):
        with pytest.raises(ValueError, match="multiple of 16"):
            lpddr5_organization(100, 8)


class TestTimings:
    def test_burst_time(self):
        org = lpddr5_organization(256, 64, data_rate_mbps=6400)
        # 32 B on a 16-bit bus at 6400 MT/s: 16 transfers / 6.4 GT/s = 2.5 ns
        assert LPDDR5_6400_TIMINGS.burst_time_ns(org) == pytest.approx(2.5)

    def test_lpddr5x_burst_faster(self):
        org = lpddr5_organization(64, 32, data_rate_mbps=7467)
        assert LPDDR5_6400_TIMINGS.burst_time_ns(org) < 2.5

    def test_timing_relations_sane(self):
        t = LPDDR5_6400_TIMINGS
        assert t.tRC >= t.tRAS
        assert t.tRAS > t.tRCD
        assert t.tCCD > 0


class TestDramConfig:
    def test_with_data_rate(self):
        cfg = DramConfig(TINY_ORG, LPDDR5_6400_TIMINGS)
        faster = cfg.with_data_rate(8533)
        assert faster.org.data_rate_mbps == 8533
        assert cfg.org.data_rate_mbps == 6400  # original untouched

    def test_org_alias(self):
        cfg = DramConfig(TINY_ORG, LPDDR5_6400_TIMINGS)
        assert cfg.org is cfg.organization
