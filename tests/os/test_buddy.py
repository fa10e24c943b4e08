"""Tests for the buddy allocator, FMFI, and compaction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.os.buddy import BuddyAllocator, OutOfMemoryError


class TestInitialState:
    def test_all_memory_in_max_order_blocks(self):
        buddy = BuddyAllocator(2048, max_order=9)
        assert buddy.free_blocks(9) == 4
        assert buddy.free_pages == 2048
        assert buddy.used_pages == 0

    def test_tail_pages_split(self):
        buddy = BuddyAllocator(512 + 96, max_order=9)
        assert buddy.free_pages == 608
        assert buddy.free_blocks(9) == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BuddyAllocator(0)

    def test_rejects_negative_max_order(self):
        with pytest.raises(ValueError, match="max_order"):
            BuddyAllocator(16, max_order=-1)


class TestAllocFree:
    def test_alloc_splits(self):
        buddy = BuddyAllocator(512, max_order=9)
        frame = buddy.alloc(0)
        assert frame == 0
        assert buddy.free_pages == 511
        # one free block at every order below max
        for order in range(9):
            assert buddy.free_blocks(order) == 1

    def test_alignment(self):
        buddy = BuddyAllocator(2048, max_order=9)
        for order in (0, 3, 5, 9):
            frame = buddy.alloc(order)
            assert frame % (1 << order) == 0

    def test_free_merges_back(self):
        buddy = BuddyAllocator(512, max_order=9)
        frames = [buddy.alloc(0) for _ in range(8)]
        for frame in frames:
            buddy.free(frame)
        assert buddy.free_blocks(9) == 1
        assert buddy.free_pages == 512

    def test_double_free_rejected(self):
        buddy = BuddyAllocator(64, max_order=4)
        frame = buddy.alloc(0)
        buddy.free(frame)
        with pytest.raises(ValueError):
            buddy.free(frame)

    def test_oom(self):
        buddy = BuddyAllocator(16, max_order=4)
        buddy.alloc(4)
        with pytest.raises(OutOfMemoryError):
            buddy.alloc(0)

    def test_bad_order(self):
        buddy = BuddyAllocator(16, max_order=4)
        with pytest.raises(ValueError):
            buddy.alloc(5)

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_alloc_free_all_restores_state(self, orders):
        """Property: allocating any feasible sequence then freeing it all
        restores a fully-coalesced arena."""
        buddy = BuddyAllocator(1024, max_order=9)
        frames = []
        for order in orders:
            try:
                frames.append(buddy.alloc(order))
            except OutOfMemoryError:
                break
        for frame in frames:
            buddy.free(frame)
        assert buddy.free_pages == 1024
        assert buddy.free_blocks(9) == 2


class TestFmfi:
    def test_pristine_arena_is_zero(self):
        buddy = BuddyAllocator(2048, max_order=9)
        assert buddy.fmfi(9) == 0.0

    def test_fully_shattered_is_near_one(self):
        buddy = BuddyAllocator(1024, max_order=9)
        # pin one page in every 512-page window
        buddy.fragment_to(0.99, order=9, rng=random.Random(1))
        assert buddy.fmfi(9) > 0.9

    def test_fragment_to_mid_band(self):
        buddy = BuddyAllocator(4096, max_order=9)
        achieved = buddy.fragment_to(0.5, order=9, rng=random.Random(2))
        assert 0.3 <= achieved <= 0.7

    def test_exhausted_arena(self):
        buddy = BuddyAllocator(16, max_order=4)
        buddy.alloc(4)
        assert buddy.fmfi(4) == 1.0


class TestFragmentToEdges:
    def test_max_order_arena_without_max_blocks(self):
        """An arena too small to hold any max-order block is already at
        FMFI 1.0 for that order; fragment_to pins nothing."""
        buddy = BuddyAllocator(96, max_order=9)
        assert buddy.fmfi(9) == 1.0
        achieved = buddy.fragment_to(0.99, order=9, rng=random.Random(0))
        assert achieved == 1.0
        assert buddy.pinned == []

    def test_fully_fragmented_pool_stops_without_candidates(self):
        """Once every free block is pinned down to singles, the injector
        runs out of candidates and returns instead of spinning."""
        buddy = BuddyAllocator(16, max_order=4)
        while True:
            try:
                frame = buddy.alloc(0)
            except OutOfMemoryError:
                break
            buddy.pinned.append(frame)
        achieved = buddy.fragment_to(0.99, order=4, rng=random.Random(0))
        assert achieved == 1.0  # no free memory left at all
        assert buddy.free_pages == 0

    def test_target_zero_is_a_noop(self):
        buddy = BuddyAllocator(1024, max_order=9)
        achieved = buddy.fragment_to(0.0, order=9, rng=random.Random(0))
        assert achieved == 0.0
        assert buddy.pinned == []
        assert buddy.free_pages == 1024


class TestCompactionEdges:
    def test_max_order_block_minted_from_fully_fragmented_pool(self):
        """Every window shattered by movable pins: compaction at
        order == max_order must still reconstitute a block."""
        buddy = BuddyAllocator(1024, max_order=9)
        buddy.fragment_to(0.99, order=9, rng=random.Random(11))
        assert buddy.free_blocks(9) == 0
        result = buddy.alloc_with_compaction(9)
        assert result.frame % 512 == 0
        assert result.pages_moved > 0
        assert buddy.allocated[result.frame] == 9
        # moved pins were rehomed, not lost
        assert buddy.used_pages == 512 + len(buddy.pinned) + sum(
            1 for f, o in buddy.allocated.items()
            if o == 0 and f not in buddy.pinned
        )

    def test_evacuation_fails_when_residents_cannot_be_rehomed(self):
        """Enough pages are free in total, but the displaced order-2
        resident has no aligned home outside the window: the evacuation
        itself runs out of memory."""
        buddy = BuddyAllocator(32, max_order=4)
        resident = buddy.alloc(2)  # pages 0-3, inside window [0, 16)
        assert resident == 0
        # shatter window [16, 32): pin the first page of every order-2
        # group so no 4-page block survives there
        for frame in (16, 20, 24, 28):
            buddy._reserve_range(frame, 1)
            buddy.allocated[frame] = 0
        assert buddy.free_pages == 24  # >= the 16 the block needs
        with pytest.raises(OutOfMemoryError):
            buddy.alloc_with_compaction(4)

    def test_compaction_with_insufficient_free_pages_names_the_gap(self):
        buddy = BuddyAllocator(32, max_order=4)
        buddy.alloc(4)
        buddy.alloc(3)
        with pytest.raises(OutOfMemoryError, match="pages free"):
            buddy.alloc_with_compaction(4)


class TestReserveRange:
    def test_reserves_exact_pages(self):
        buddy = BuddyAllocator(64, max_order=4)
        buddy._reserve_range(10, 6)
        assert buddy.free_pages == 58
        # pages 10..15 are gone: allocating everything never returns them
        taken = set()
        while True:
            try:
                taken.add(buddy.alloc(0))
            except OutOfMemoryError:
                break
        assert taken.isdisjoint(range(10, 16))

    def test_rejects_overlap_with_allocated(self):
        buddy = BuddyAllocator(64, max_order=4)
        frame = buddy.alloc(0)
        with pytest.raises(OutOfMemoryError):
            buddy._reserve_range(frame, 4)


class TestCompaction:
    def test_no_compaction_when_block_free(self):
        buddy = BuddyAllocator(1024, max_order=9)
        result = buddy.alloc_with_compaction(9)
        assert result.pages_moved == 0

    def test_compaction_mints_block(self):
        buddy = BuddyAllocator(1024, max_order=9)
        # shatter both windows with movable singles
        buddy.fragment_to(0.99, order=9, rng=random.Random(3))
        assert buddy.free_blocks(9) == 0
        result = buddy.alloc_with_compaction(9)
        assert result.pages_moved > 0
        assert result.frame % 512 == 0
        assert buddy.allocated[result.frame] == 9

    def test_compaction_moves_cheapest_window(self):
        buddy = BuddyAllocator(1024, max_order=9)
        # window 0: 100 singles, window 1: 1 single
        for page in range(100):
            buddy._reserve_range(page * 2, 1)
            buddy.allocated[page * 2] = 0
        buddy._reserve_range(512, 1)
        buddy.allocated[512] = 0
        result = buddy.alloc_with_compaction(9)
        assert result.frame == 512
        assert result.pages_moved == 1

    def test_moved_pinned_page_stays_pinned(self):
        buddy = BuddyAllocator(1024, max_order=9)
        buddy.fragment_to(0.99, order=9, rng=random.Random(0))
        assert buddy.pinned == [512, 0]
        result = buddy.alloc_with_compaction(9)
        assert result.displaced == [(0, 513)]
        assert buddy.pinned == [512, 513]
        # releasing every pinned page and the minted block leaks nothing
        for frame in buddy.pinned + [result.frame]:
            buddy.free(frame)
        assert buddy.free_pages == 1024 and buddy.allocated == {}

    def test_raises_when_not_enough_free(self):
        buddy = BuddyAllocator(512, max_order=9)
        buddy.alloc(8)  # half the arena used
        buddy.alloc(8)
        with pytest.raises(OutOfMemoryError):
            buddy.alloc_with_compaction(9)


class TestFromAllocated:
    def test_complement_coalesces(self):
        buddy = BuddyAllocator.from_allocated(1024, {0}, max_order=9)
        assert buddy.free_pages == 1023
        assert buddy.free_blocks(9) == 1  # the untouched window

    def test_empty_allocation_fully_free(self):
        buddy = BuddyAllocator.from_allocated(1024, set(), max_order=9)
        assert buddy.free_blocks(9) == 2

    def test_matches_incremental_construction(self):
        incremental = BuddyAllocator(256, max_order=4)
        taken = {incremental.alloc(0) for _ in range(5)}
        direct = BuddyAllocator.from_allocated(256, taken, max_order=4)
        for order in range(5):
            assert direct.free_blocks(order) == incremental.free_blocks(order)

    @pytest.mark.parametrize("page", [99, 16, -1])
    def test_rejects_pages_outside_the_arena(self, page):
        with pytest.raises(ValueError, match=rf"page {page} outside \[0, 16\)"):
            BuddyAllocator.from_allocated(16, {3, page}, max_order=4)
