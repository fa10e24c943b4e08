"""Tests for the MMU (translation + range splitting)."""

import pytest

from repro.os.mmu import Mmu
from repro.os.page_table import PageFaultError, PageTable


def _mmu_with_pages():
    table = PageTable()
    # two adjacent 4 KB pages, physically contiguous
    table.map_page(0x1000, 0x8000)
    table.map_page(0x2000, 0x9000)
    # a third page, physically discontiguous
    table.map_page(0x3000, 0x20000)
    # one huge page with a MapID
    table.map_page(0x40_0000, 0x20_0000, huge=True, map_id=2)
    return Mmu(table)


class TestTranslate:
    def test_offset_preserved(self):
        mmu = _mmu_with_pages()
        t = mmu.translate(0x1234)
        assert t.pa == 0x8234
        assert t.map_id == 0

    def test_huge_page_map_id(self):
        mmu = _mmu_with_pages()
        t = mmu.translate(0x40_1234)
        assert t.pa == 0x20_1234
        assert t.map_id == 2

    def test_fault_propagates(self):
        mmu = _mmu_with_pages()
        with pytest.raises(PageFaultError):
            mmu.translate(0x9999_0000)

    def test_tlb_caches_walks(self):
        mmu = _mmu_with_pages()
        mmu.translate(0x1010)
        walks_before = mmu.page_table.walks
        mmu.translate(0x1020)
        assert mmu.page_table.walks == walks_before  # TLB hit, no walk


class TestTranslateRange:
    def test_merges_contiguous_pages(self):
        mmu = _mmu_with_pages()
        runs = mmu.translate_range(0x1800, 0x1000)
        assert runs == [(0x8800, 0x1000, 0)]

    def test_splits_discontiguous(self):
        mmu = _mmu_with_pages()
        runs = mmu.translate_range(0x2800, 0x1000)
        assert runs == [(0x9800, 0x800, 0), (0x20000, 0x800, 0)]

    def test_within_one_page(self):
        mmu = _mmu_with_pages()
        runs = mmu.translate_range(0x1100, 0x200)
        assert runs == [(0x8100, 0x200, 0)]

    def test_carries_map_id(self):
        mmu = _mmu_with_pages()
        runs = mmu.translate_range(0x40_0000, 0x1000)
        assert runs == [(0x20_0000, 0x1000, 2)]

    def test_huge_page_single_run(self):
        mmu = _mmu_with_pages()
        runs = mmu.translate_range(0x40_0000, 2 << 20)
        assert len(runs) == 1
        assert runs[0][1] == 2 << 20
