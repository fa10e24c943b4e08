"""Tests for the mmap-style address space with the MapID extension."""

import pytest

from repro.os.buddy import BuddyAllocator, OutOfMemoryError
from repro.os.page_table import HUGE_SHIFT, PAGE_SHIFT, PteFlags
from repro.os.vm import AddressSpace


def _space(pages=4096):
    return AddressSpace(BuddyAllocator(pages, max_order=9))


class TestMmapBasics:
    def test_base_pages(self):
        space = _space()
        va = space.mmap(3 * 4096)
        area = space.areas[va]
        assert area.page_shift == PAGE_SHIFT
        assert area.n_pages == 3
        assert space.mmu.translate(va).map_id == 0

    def test_huge_pages(self):
        space = _space()
        va = space.mmap(2 << 20, huge=True)
        area = space.areas[va]
        assert area.page_shift == HUGE_SHIFT
        assert va % (2 << 20) == 0

    def test_length_rounds_up(self):
        space = _space()
        va = space.mmap(5000)
        assert space.areas[va].length == 8192

    def test_map_id_requires_huge(self):
        """The paper's extended mmap() only accepts a MapID for huge
        pages (§V-A)."""
        space = _space()
        with pytest.raises(ValueError, match="huge"):
            space.mmap(4096, huge=False, map_id=1)

    def test_map_id_lands_in_pte(self):
        space = _space()
        va = space.mmap(2 << 20, huge=True, map_id=3)
        t = space.mmu.translate(va + 0x1234)
        assert t.map_id == 3
        assert t.flags & PteFlags.PIM

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            _space().mmap(0)

    def test_vas_do_not_overlap(self):
        space = _space()
        a = space.mmap(4096)
        b = space.mmap(2 << 20, huge=True)
        c = space.mmap(4096)
        assert a + 4096 <= b
        assert b + (2 << 20) <= c


class TestMunmap:
    def test_frees_frames_and_ptes(self):
        space = _space()
        free_before = space.buddy.free_pages
        va = space.mmap(2 << 20, huge=True, map_id=1)
        space.munmap(va)
        assert space.buddy.free_pages == free_before
        with pytest.raises(Exception):
            space.mmu.translate(va)

    def test_unknown_va_rejected(self):
        with pytest.raises(ValueError):
            _space().munmap(0xDEAD_0000)

    def test_tlb_invalidated(self):
        space = _space()
        va = space.mmap(4096)
        space.mmu.translate(va)  # fill TLB
        space.munmap(va)
        assert space.mmu.tlb.lookup(va) is None


class TestRollback:
    def test_partial_failure_releases_everything(self):
        """Asking for more huge pages than the arena holds must not leak
        frames or PTEs."""
        space = _space(pages=1024)  # two 2 MB windows
        free_before = space.buddy.free_pages
        with pytest.raises(OutOfMemoryError):
            space.mmap(3 * (2 << 20), huge=True, compact=False)
        assert space.buddy.free_pages == free_before
        assert not space.areas


class TestCompactionAccounting:
    def test_moves_counted(self):
        space = _space(pages=1024)
        # fragment: pin a movable page in each window
        import random

        space.buddy.fragment_to(0.99, order=9, rng=random.Random(0))
        va = space.mmap(2 << 20, huge=True, compact=True)
        assert space.compaction_moves > 0
        assert va in space.areas


def _assert_areas_own_their_frames(space):
    """Every allocated frame belongs to exactly one live area, and each
    page translates to its area's frame."""
    owned = [frame for area in space.areas.values() for frame in area.frames]
    assert sorted(owned) == sorted(space.buddy.allocated)
    for area in space.areas.values():
        for index, frame in enumerate(area.frames):
            t = space.mmu.translate(area.va + index * area.page_bytes)
            assert t.pa == frame << PAGE_SHIFT


class TestCompactionFollowsLiveAreas:
    def test_displaced_page_is_repointed(self):
        """Minting a huge page moves a live base page out of its window;
        the owning area must follow the page to its new frame."""
        space = AddressSpace(BuddyAllocator(1536, max_order=9))
        a, b, _, d, _ = (space.mmap(n << PAGE_SHIFT) for n in (1, 511, 1, 511, 1))
        space.munmap(b)
        space.munmap(d)
        space.mmu.translate(a)  # cache the translation compaction moves
        huge = space.mmap(2 << 20, huge=True)
        assert space.compaction_moves == 1
        assert space.areas[huge].frames == [0]
        assert space.areas[a].frames == [513]
        leaf = space.page_table.walk(a)
        assert (leaf.pa, leaf.flags, leaf.map_id) == (
            513 << PAGE_SHIFT, PteFlags.PRESENT | PteFlags.WRITABLE, 0
        )
        _assert_areas_own_their_frames(space)
        # freeing the moved page must not free the huge page
        space.munmap(a)
        second = space.mmap(2 << 20, huge=True)
        assert space.areas[second].frames != [0]
        _assert_areas_own_their_frames(space)


class TestAreaOf:
    def test_lookup_by_interior_address(self):
        space = _space()
        va = space.mmap(3 * 4096)
        assert space.area_of(va + 5000).va == va

    def test_missing(self):
        with pytest.raises(KeyError):
            _space().area_of(0x1)
