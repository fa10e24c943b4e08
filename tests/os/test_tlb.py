"""Tests for the set-associative TLB."""

import pytest

from repro.os.page_table import HUGE_SHIFT, PAGE_SHIFT, WalkResult
from repro.os.tlb import Tlb
from repro.reliability.faults import FaultInjector


def _leaf(pa, huge=False, map_id=0):
    return WalkResult(
        pa=pa,
        page_shift=HUGE_SHIFT if huge else PAGE_SHIFT,
        map_id=map_id,
        flags=1,
    )


class TestBasics:
    def test_miss_then_hit(self):
        tlb = Tlb()
        assert tlb.lookup(0x1234) is None
        tlb.fill(0x1234, _leaf(0x8000))
        assert tlb.lookup(0x1234).pa == 0x8000
        assert tlb.stats.misses == 1
        assert tlb.stats.hits == 1

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Tlb(n_sets=0)

    def test_map_id_travels_with_entry(self):
        tlb = Tlb()
        tlb.fill(0x40_0000, _leaf(0x20_0000, huge=True, map_id=5))
        assert tlb.lookup(0x40_0000).map_id == 5


class TestHugePageReach:
    def test_one_entry_covers_whole_huge_page(self):
        tlb = Tlb()
        tlb.fill(0x40_0000, _leaf(0x20_0000, huge=True))
        for offset in (0, 0x1000, 0x10_0000, 0x1F_F000):
            assert tlb.lookup(0x40_0000 + offset) is not None

    def test_base_entry_does_not_cover_neighbours(self):
        tlb = Tlb()
        tlb.fill(0x1000, _leaf(0x8000))
        assert tlb.lookup(0x2000) is None


class TestEviction:
    def test_lru_eviction_within_set(self):
        tlb = Tlb(n_sets=1, ways=2)
        tlb.fill(0x1000, _leaf(0x1000))
        tlb.fill(0x2000, _leaf(0x2000))
        tlb.lookup(0x1000)  # touch first -> second becomes LRU
        tlb.fill(0x3000, _leaf(0x3000))  # evicts 0x2000
        assert tlb.lookup(0x1000) is not None
        assert tlb.lookup(0x2000) is None
        assert tlb.stats.evictions == 1

    def test_refill_updates_in_place(self):
        tlb = Tlb(n_sets=1, ways=1)
        tlb.fill(0x1000, _leaf(0x1000))
        tlb.fill(0x1000, _leaf(0x9000))
        assert tlb.lookup(0x1000).pa == 0x9000
        assert tlb.stats.evictions == 0


class TestInvalidate:
    def test_invalidate_specific(self):
        tlb = Tlb()
        tlb.fill(0x1000, _leaf(0x1000))
        tlb.invalidate(0x1000, PAGE_SHIFT)
        assert tlb.lookup(0x1000) is None

    @pytest.mark.parametrize("swallowed", [0, 1, 3, 9])
    @pytest.mark.parametrize("page_shift", [PAGE_SHIFT, HUGE_SHIFT])
    def test_run_matches_page_by_page_under_lost_shootdowns(
        self, page_shift, swallowed
    ):
        """A run shootdown shows the fault hook every page in page order,
        so an injector swallowing k shootdowns spares the same pages and
        logs the same events as one ``invalidate`` per page."""
        huge = page_shift == HUGE_SHIFT
        page = 1 << page_shift
        other = 1 << (PAGE_SHIFT if huge else HUGE_SHIFT)
        base = 0x7F00_0000_0000 + 3 * page  # a run that wraps the sets

        def filled():
            # the run's pages and their neighbours, and as many pages of
            # the other size from the run's start
            tlb = Tlb(n_sets=4, ways=8)
            for index in range(12):
                tlb.fill(base + (index - 2) * page, _leaf(index * page, huge))
                tlb.fill(base + (index - 2) * other, _leaf(index * other, not huge))
            injector = FaultInjector(seed=0)
            injector.suppress_invalidations(swallowed)
            tlb.fault_hook = injector
            return tlb, injector

        def entries(tlb):
            return [[(e.vpn, e.page_shift, e.leaf, e.stamp) for e in s]
                    for s in tlb._sets]

        run, run_faults = filled()
        single, single_faults = filled()
        run.invalidate_run(base, 7, page_shift)
        for index in range(7):
            single.invalidate(base + index * page, page_shift)
        assert entries(run) == entries(single)
        assert sum(map(len, entries(run))) == 24 - 7 + min(swallowed, 7)
        assert run_faults.log == single_faults.log
        assert len(run_faults.log) == min(swallowed, 7)
        assert run_faults._suppress_invalidations == max(swallowed - 7, 0)

    def test_flush(self):
        tlb = Tlb()
        tlb.fill(0x1000, _leaf(0x1000))
        tlb.fill(0x40_0000, _leaf(0x20_0000, huge=True))
        tlb.flush()
        assert tlb.lookup(0x1000) is None
        assert tlb.lookup(0x40_0000) is None


class TestStats:
    def test_hit_rate(self):
        tlb = Tlb()
        tlb.fill(0x1000, _leaf(0x1000))
        tlb.lookup(0x1000)
        tlb.lookup(0x1000)
        tlb.lookup(0x9_9000)
        assert tlb.stats.hit_rate == pytest.approx(2 / 3)

    def test_empty_stats(self):
        assert Tlb().stats.hit_rate == 0.0
