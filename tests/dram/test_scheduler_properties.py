"""Property-based tests for the FR-FCFS scheduler: conservation and
timing-sanity invariants over random request streams."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dram.address import DramCoord
from repro.dram.command import Request
from repro.dram.config import TINY_ORG, DramConfig, LPDDR5_6400_TIMINGS
from repro.dram.scheduler import ChannelScheduler

CFG = DramConfig(TINY_ORG, LPDDR5_6400_TIMINGS)

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _stream(draw):
    n = draw(st.integers(min_value=1, max_value=120))
    reqs = []
    for _ in range(n):
        reqs.append(
            Request(
                coord=DramCoord(
                    channel=0,
                    rank=0,
                    bank=draw(st.integers(0, 3)),
                    row=draw(st.integers(0, 15)),
                    col=draw(st.integers(0, 7)),
                ),
                is_write=draw(st.booleans()),
            )
        )
    return reqs


class TestConservation:
    @given(_stream(), st.integers(min_value=1, max_value=128))
    @settings(**_SETTINGS)
    def test_every_request_served_exactly_once(self, stream, window):
        sched = ChannelScheduler(CFG, channel=0, window=window)
        for request in stream:
            sched.enqueue(request)
        sched.drain()
        sched.collect_bank_stats()
        stats = sched.stats
        assert stats.reads + stats.writes == len(stream)
        assert (
            stats.row_hits + stats.row_misses + stats.row_conflicts
            == len(stream)
        )

    @given(_stream())
    @settings(**_SETTINGS)
    def test_finish_time_bounded(self, stream):
        """The drain can never beat the data-bus floor, nor exceed a
        worst-case serial row cycle per request."""
        sched = ChannelScheduler(CFG, channel=0)
        for request in stream:
            sched.enqueue(request)
        end = sched.drain()
        burst = CFG.timings.burst_time_ns(CFG.org)
        assert end >= len(stream) * burst * 0.99
        worst = CFG.timings.tRC + CFG.timings.tRCD + CFG.timings.tRP + 50
        assert end <= len(stream) * worst

    @given(_stream(), st.integers(min_value=1, max_value=2))
    @settings(**_SETTINGS)
    def test_dual_buffers_never_hurt(self, stream, _):
        single = ChannelScheduler(CFG, channel=0, n_row_buffers=1)
        dual = ChannelScheduler(CFG, channel=0, n_row_buffers=2)
        for request in stream:
            single.enqueue(request)
            dual.enqueue(request)
        single.drain()
        dual.drain()
        single.collect_bank_stats()
        dual.collect_bank_stats()
        assert dual.stats.row_conflicts <= single.stats.row_conflicts

    @given(_stream())
    @settings(**_SETTINGS)
    def test_reordering_preserves_totals(self, stream):
        """Whatever order FR-FCFS picks, the per-kind counts match the
        input stream."""
        sched = ChannelScheduler(CFG, channel=0)
        for request in stream:
            sched.enqueue(request)
        sched.drain()
        expected_writes = sum(1 for r in stream if r.is_write)
        assert sched.stats.writes == expected_writes
        assert sched.stats.reads == len(stream) - expected_writes
