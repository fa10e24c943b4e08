"""Tests for the FR-FCFS channel scheduler."""

import pytest

from repro.dram.address import DramCoord
from repro.dram.command import Request
from repro.dram.config import TINY_ORG, DramConfig, LPDDR5_6400_TIMINGS
from repro.dram.scheduler import ChannelScheduler

CFG = DramConfig(TINY_ORG, LPDDR5_6400_TIMINGS)


def _req(bank=0, row=0, col=0, write=False, channel=0):
    return Request(
        coord=DramCoord(channel=channel, rank=0, bank=bank, row=row, col=col),
        is_write=write,
    )


class TestBasics:
    def test_rejects_wrong_channel(self):
        sched = ChannelScheduler(CFG, channel=0)
        with pytest.raises(ValueError, match="channel"):
            sched.enqueue(_req(channel=1))

    def test_drain_serves_everything(self):
        sched = ChannelScheduler(CFG, channel=0)
        for col in range(8):
            sched.enqueue(_req(col=col))
        sched.drain()
        assert sched.stats.reads == 8

    def test_stats_partition_exactly(self):
        sched = ChannelScheduler(CFG, channel=0)
        for row in (0, 0, 1, 1, 0):
            sched.enqueue(_req(row=row))
        sched.drain()
        sched.collect_bank_stats()
        s = sched.stats
        assert s.row_hits + s.row_misses + s.row_conflicts == 5


class TestValidation:
    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("window", dict(window=0)),
            ("window", dict(window=-3)),
            ("n_row_buffers", dict(n_row_buffers=0)),
        ],
    )
    def test_rejects_sizes_below_one(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            ChannelScheduler(CFG, channel=0, **kwargs)

    @pytest.mark.parametrize(
        "field, coord, limit",
        [
            ("bank", dict(rank=0, bank=9), 4),
            ("bank", dict(rank=0, bank=-1), 4),
            ("rank", dict(rank=1, bank=0), 1),
        ],
    )
    def test_rejects_rank_or_bank_outside_the_channel(self, field, coord, limit):
        sched = ChannelScheduler(CFG, channel=0, log_commands=True)
        sched.enqueue(_req(col=0))
        bad = Request(coord=DramCoord(channel=0, row=0, col=1, **coord))
        with pytest.raises(ValueError, match=f"{field}.*{limit}"):
            sched.enqueue(bad)
        # the queue is unchanged: only the valid request is served
        sched.drain()
        assert sched.stats.reads == 1
        assert [c.op for c in sched.command_log] == ["ACT", "RD"]


class TestRowPolicy:
    def test_sequential_same_row_is_fast(self):
        sched = ChannelScheduler(CFG, channel=0)
        for col in range(8):
            sched.enqueue(_req(col=col))
        end = sched.drain()
        sched.collect_bank_stats()
        assert sched.stats.row_hits == 7
        # one activation + 8 bus slots, far below 8 row cycles
        assert end < CFG.timings.tRC * 4

    def test_row_conflicts_are_slow(self):
        # window=1 forbids reordering, so the alternating-row pattern
        # conflicts on every request.
        sched = ChannelScheduler(CFG, channel=0, window=1)
        for i in range(8):
            sched.enqueue(_req(row=i % 2))
        end = sched.drain()
        sched.collect_bank_stats()
        assert sched.stats.row_conflicts >= 6
        assert end > CFG.timings.tRC * 6

    def test_bank_interleave_hides_conflicts(self):
        """The same conflict-prone pattern spread over 4 banks overlaps
        row cycles and finishes much earlier."""
        serial = ChannelScheduler(CFG, channel=0)
        for i in range(16):
            serial.enqueue(_req(bank=0, row=i))
        serial_end = serial.drain()

        spread = ChannelScheduler(CFG, channel=0)
        for i in range(16):
            spread.enqueue(_req(bank=i % 4, row=i // 4))
        spread_end = spread.drain()
        assert spread_end < serial_end * 0.6


class TestReordering:
    def test_row_hits_served_before_older_miss(self):
        sched = ChannelScheduler(CFG, channel=0, window=8)
        sched.enqueue(_req(bank=0, row=0, col=0))
        sched.enqueue(_req(bank=0, row=1, col=0))  # conflict
        sched.enqueue(_req(bank=0, row=0, col=1))  # hit for open row
        sched.drain()
        sched.collect_bank_stats()
        # the hit must have been folded in before row 1's conflict
        assert sched.stats.row_hits == 1
        assert sched.stats.row_conflicts == 1

    def test_window_one_is_strict_fifo(self):
        sched = ChannelScheduler(CFG, channel=0, window=1)
        sched.enqueue(_req(row=0))
        sched.enqueue(_req(row=1))
        sched.enqueue(_req(row=0, col=1))
        sched.drain()
        sched.collect_bank_stats()
        assert sched.stats.row_conflicts == 2  # no reordering allowed


class TestWriteTurnaround:
    def test_write_to_read_pays_twtr(self):
        mixed = ChannelScheduler(CFG, channel=0)
        mixed.enqueue(_req(col=0, write=True))
        mixed.enqueue(_req(col=1, write=False))
        mixed_end = mixed.drain()

        reads = ChannelScheduler(CFG, channel=0)
        reads.enqueue(_req(col=0, write=False))
        reads.enqueue(_req(col=1, write=False))
        reads_end = reads.drain()
        assert mixed_end > reads_end
