"""Tests for the top-level DRAM timing simulator (incl. the paper's
§VI-A bandwidth verification)."""

import numpy as np
import pytest

from repro.core.controller import MemoryController
from repro.core.mapping import pim_optimized_mapping
from repro.dram.config import DramConfig, LPDDR5_6400_TIMINGS, lpddr5_organization
from repro.dram.system import DramTimingSimulator, requests_from_fields

ORG = lpddr5_organization(bus_width_bits=256, capacity_gb=64)
CFG = DramConfig(ORG, LPDDR5_6400_TIMINGS)


@pytest.fixture(scope="module")
def controller():
    ctl = MemoryController(ORG)
    ctl.table.register(pim_optimized_mapping(ORG, 1, 1024, 2, 1, 21))
    return ctl


@pytest.fixture(scope="module")
def simulator():
    return DramTimingSimulator(CFG)


def _seq(nbytes):
    return np.arange(0, nbytes, ORG.transfer_bytes, dtype=np.int64)


class TestSequentialBandwidth:
    def test_conventional_reaches_near_peak(self, controller, simulator):
        """The paper verifies its assumed SoC mapping achieves near-peak
        sequential read bandwidth (§VI-A)."""
        bw = simulator.measure_bandwidth(
            controller.translate_array(_seq(4 << 20), 0), sample_transfers=16384
        )
        assert bw > 0.95 * ORG.peak_bandwidth_gbps

    def test_pim_layout_sequential_is_slow(self, controller, simulator):
        """Reading a PIM-optimized layout with sequential addresses is
        bank-serial — the cost the hybrid baseline's re-layout pays."""
        bw = simulator.measure_bandwidth(
            controller.translate_array(_seq(4 << 20), 1), sample_transfers=16384
        )
        assert bw < 0.6 * ORG.peak_bandwidth_gbps

    def test_write_stream(self, controller, simulator):
        bw = simulator.measure_bandwidth(
            controller.translate_array(_seq(1 << 20), 0),
            is_write=True,
            sample_transfers=8192,
        )
        assert bw > 0.8 * ORG.peak_bandwidth_gbps


class TestRunAccounting:
    def test_counts(self, controller, simulator):
        fields = controller.translate_array(_seq(64 * 1024), 0)
        result = simulator.run(requests_from_fields(fields))
        assert result.n_requests == 2048
        assert result.bytes_moved == 64 * 1024
        assert result.row_hits + result.row_misses + result.row_conflicts == 2048

    def test_empty_stream(self, simulator):
        result = simulator.run([])
        assert result.total_ns == 0
        assert result.bandwidth_gbps == 0.0

    def test_channels_parallel(self, controller, simulator):
        """A stream over all 16 channels finishes ~16x faster than the
        same transfers confined to one channel."""
        fields_all = controller.translate_array(_seq(128 * 1024), 0)
        one_channel = {k: v.copy() for k, v in fields_all.items()}
        one_channel["channel"][:] = 0
        t_all = simulator.run(requests_from_fields(fields_all)).total_ns
        t_one = simulator.run(requests_from_fields(one_channel)).total_ns
        assert t_one > 8 * t_all


class TestSampling:
    def test_sampling_truncates(self, controller, simulator):
        fields = controller.translate_array(_seq(8 << 20), 0)
        bw_sampled = simulator.measure_bandwidth(fields, sample_transfers=4096)
        assert bw_sampled > 0


class TestRefreshModeling:
    def test_refresh_costs_duty_cycle(self, controller):
        """With all-bank refresh on, bandwidth drops by the tRFC/tREFI
        duty cycle *plus* the cost of re-opening the rows the refresh
        precharged.  An exaggerated duty cycle (10 %) makes the effect
        visible on a short sample — and amplifies the re-open cost, so
        the lower bound is loose."""
        from dataclasses import replace as dc_replace

        timings = dc_replace(LPDDR5_6400_TIMINGS, tREFI=500.0, tRFC=50.0)
        config = DramConfig(ORG, timings)
        fields = controller.translate_array(_seq(1 << 20), 0)
        base = DramTimingSimulator(config).measure_bandwidth(
            fields, sample_transfers=16384
        )
        refreshed = DramTimingSimulator(
            config, model_refresh=True
        ).measure_bandwidth(fields, sample_transfers=16384)
        assert refreshed < 0.95 * base
        assert refreshed > 0.55 * base


@pytest.mark.parametrize(
    "field, kwargs",
    [("window", dict(window=0)), ("n_row_buffers", dict(n_row_buffers=0))],
)
def test_simulator_rejects_sizes_below_one(field, kwargs):
    with pytest.raises(ValueError, match=field):
        DramTimingSimulator(CFG, **kwargs)
