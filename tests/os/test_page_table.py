"""Tests for the radix page table and the MapID-bearing PTE (Fig. 11)."""

import copy
import random

import pytest

from repro.os.page_table import (
    MAP_ID_BITS,
    PAGE_SHIFT,
    PageFaultError,
    PageTable,
    PteFlags,
    pack_pte,
    unpack_pte,
)


class TestPtePacking:
    def test_roundtrip_base_page(self):
        pte = pack_pte(0x1234, PteFlags.PRESENT | PteFlags.WRITABLE)
        leaf = unpack_pte(pte)
        assert leaf.pa == 0x1234 << PAGE_SHIFT
        assert leaf.page_shift == PAGE_SHIFT
        assert leaf.map_id == 0

    def test_roundtrip_huge_page_with_map_id(self):
        pfn = 0x200  # 2 MB aligned (low 9 bits clear)
        pte = pack_pte(pfn, PteFlags.PRESENT | PteFlags.HUGE, map_id=11)
        leaf = unpack_pte(pte)
        assert leaf.pa == pfn << PAGE_SHIFT
        assert leaf.is_huge
        assert leaf.map_id == 11

    def test_map_id_lives_in_unused_bits(self):
        """The MapID occupies PTE bits [12,16) — inside the PFN field but
        necessarily zero for a 2 MB page, so no extra storage is used."""
        pfn = 0x200
        base = pack_pte(pfn, PteFlags.PRESENT | PteFlags.HUGE, map_id=0)
        tagged = pack_pte(pfn, PteFlags.PRESENT | PteFlags.HUGE, map_id=0xF)
        assert tagged ^ base == 0xF << PAGE_SHIFT

    def test_map_id_width_bounded(self):
        """The paper: even 14 extra mappings need only 4 bits."""
        assert MAP_ID_BITS == 4
        with pytest.raises(ValueError, match="bits"):
            pack_pte(0x200, PteFlags.HUGE, map_id=16)

    def test_map_id_on_base_page_rejected(self):
        with pytest.raises(ValueError, match="huge"):
            pack_pte(0x1234, PteFlags.PRESENT, map_id=1)

    def test_unaligned_huge_pfn_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            pack_pte(0x201, PteFlags.HUGE, map_id=0)

    def test_pfn_range_check(self):
        with pytest.raises(ValueError):
            pack_pte(-1, PteFlags.PRESENT)
        with pytest.raises(ValueError):
            pack_pte(1 << 41, PteFlags.PRESENT)


class TestPageTableBasePages:
    def test_map_walk(self):
        table = PageTable()
        table.map_page(0x7000_0000_0000, 0x4000, huge=False)
        leaf = table.walk(0x7000_0000_0123)
        assert leaf.pa == 0x4000
        assert leaf.page_shift == PAGE_SHIFT

    def test_unmapped_faults(self):
        table = PageTable()
        with pytest.raises(PageFaultError):
            table.walk(0x1234_5000)

    def test_double_map_rejected(self):
        table = PageTable()
        table.map_page(0x1000, 0x2000)
        with pytest.raises(ValueError, match="already mapped"):
            table.map_page(0x1000, 0x3000)

    def test_unmap(self):
        table = PageTable()
        table.map_page(0x1000, 0x2000)
        table.unmap_page(0x1000)
        with pytest.raises(PageFaultError):
            table.walk(0x1000)

    def test_unmap_missing_faults(self):
        table = PageTable()
        with pytest.raises(PageFaultError):
            table.unmap_page(0x1000)


class TestPageTableHugePages:
    def test_huge_leaf_covers_2mb(self):
        table = PageTable()
        table.map_page(0x4000_0000, 0x20_0000, huge=True, map_id=3)
        for offset in (0, 0x1000, 0x1F_FFFF):
            leaf = table.walk(0x4000_0000 + offset)
            assert leaf.pa == 0x20_0000
            assert leaf.map_id == 3

    def test_misaligned_huge_rejected(self):
        table = PageTable()
        with pytest.raises(ValueError, match="aligned"):
            table.map_page(0x4000_1000, 0x20_0000, huge=True)

    def test_huge_and_base_coexist(self):
        table = PageTable()
        table.map_page(0x4000_0000, 0x20_0000, huge=True, map_id=1)
        table.map_page(0x5000_0000, 0x1000, huge=False)
        assert table.walk(0x4000_0000).is_huge
        assert not table.walk(0x5000_0000).is_huge

    def test_base_page_under_huge_mapping_rejected(self):
        table = PageTable()
        table.map_page(0x4000_0000, 0x20_0000, huge=True)
        with pytest.raises(ValueError, match="overlaps"):
            table.map_page(0x4000_1000, 0x9000, huge=False)

    def test_set_pa_keeps_flags_and_map_id(self):
        """Compaction moves a page's frame: the leaf gets the new address
        and keeps everything else."""
        table = PageTable()
        table.map_page(0x4000_0000, 0x20_0000, huge=True, map_id=5,
                       flags=PteFlags.PRESENT | PteFlags.PIM)
        before = table.walk(0x4000_0000)
        table.set_pa(0x4000_0000, 0x60_0000)
        after = table.walk(0x4000_0000)
        assert (after.pa, after.map_id, after.flags) == (0x60_0000, 5, before.flags)
        with pytest.raises(ValueError, match="2 MB aligned"):
            table.set_pa(0x4000_0000, 0x60_1000)
        with pytest.raises(PageFaultError):
            table.set_pa(0x5000_0000, 0x60_0000)

    def test_walk_counter(self):
        table = PageTable()
        table.map_page(0x1000, 0x2000)
        table.walk(0x1000)
        table.walk(0x1000)
        assert table.walks == 2


def _leaves(table):
    """Every leaf as ``(va, PTE word)``, by va."""
    out = []

    def visit(node, shift, base):
        for index, entry in node.items():
            va = base | (index << shift)
            if isinstance(entry, dict):
                visit(entry, shift - 9, va)
            else:
                out.append((va, entry))

    visit(table._root, 39, 0)
    return sorted(out)


def _single_page_error(setup, va, pa, huge):
    """The error one map_page call raises for this page on a fresh tree
    built by *setup*."""
    table = PageTable()
    setup(table)
    with pytest.raises(ValueError) as exc_info:
        table.map_page(va, pa, huge=huge)
    return str(exc_info.value)


class TestPageRuns:
    BASE = 0x7F00_0000_0000

    def test_map_pages_installs_consecutive_leaves(self):
        table = PageTable()
        pas = [0x20_0000 * (7 - i) for i in range(6)]
        table.map_pages(self.BASE, pas, huge=True, map_id=5)
        for index, pa in enumerate(pas):
            leaf = table.walk(self.BASE + index * 0x20_0000 + 0x123)
            assert (leaf.pa, leaf.map_id, leaf.is_huge) == (pa, 5, True)

    def test_map_pages_matches_page_by_page_across_parent_tables(self):
        # 1100 base pages starting 20 pages before a 2 MiB parent boundary
        va = self.BASE + 0x20_0000 - 20 * 4096
        pas = [(3 * i + 1) * 4096 for i in range(1100)]
        run, single = PageTable(), PageTable()
        run.map_pages(va, pas, flags=PteFlags.PRESENT)
        for index, pa in enumerate(pas):
            single.map_page(va + index * 4096, pa, flags=PteFlags.PRESENT)
        assert _leaves(run) == _leaves(single)
        run.unmap_pages(va + 4096, 1098)
        for index in range(1, 1099):
            single.unmap_page(va + index * 4096)
        assert _leaves(run) == _leaves(single) != []

    def test_each_parent_table_is_walked_once(self, monkeypatch):
        table = PageTable()
        table.map_page(self.BASE + 0x40_0000 + 0x10_0000, 0x1000)  # third parent
        walks = []
        real = PageTable._table
        monkeypatch.setattr(
            PageTable, "_table",
            lambda self, va, depth, create=False: (
                walks.append(create) or real(self, va, depth, create)
            ),
        )
        va = self.BASE + 0x20_0000 - 4096  # last slot of one parent
        table.map_pages(va, [4096 * i for i in range(2, 516)])
        # 1 + 512 + 1 pages over three parents: each checked once, and
        # the two missing ones created once each
        assert walks == [False, False, False, True, True]
        walks.clear()
        table.unmap_pages(va, 514)
        assert walks == [False, False, False]

    @pytest.mark.parametrize("case", ["misaligned", "overlap", "mapped"])
    @pytest.mark.parametrize("position", [0, 3, 5])
    def test_map_pages_is_all_or_nothing(self, case, position):
        huge = case != "overlap"
        page = 0x20_0000 if huge else 4096
        first = self.BASE + 0x4000_0000  # a fresh 1 GiB-aligned region
        pas = [page * (i + 1) for i in range(6)]
        bad_va = first + position * page
        if case == "misaligned":
            pas[position] += 4096

            def setup(table):
                table.map_page(self.BASE, 0x20_0000, huge=True)
        elif case == "overlap":
            first = self.BASE + 0x4000_0000 + 0x20_0000 - position * page

            def setup(table):
                table.map_page(self.BASE + 0x4000_0000 + 0x20_0000, 0x40_0000,
                               huge=True)
            bad_va = self.BASE + 0x4000_0000 + 0x20_0000
        else:
            def setup(table):
                table.map_page(bad_va, 0x60_0000, huge=True)
        table = PageTable()
        setup(table)
        before = copy.deepcopy(table._root)
        with pytest.raises(ValueError) as exc_info:
            table.map_pages(first, pas, huge=huge)
        assert table._root == before  # not even an empty table was added
        assert str(exc_info.value) == _single_page_error(
            setup, bad_va, pas[(bad_va - first) // page], huge
        )
        assert f"va {bad_va:#x}" in str(exc_info.value)

    def test_unmap_pages_is_all_or_nothing(self):
        table = PageTable()
        table.map_pages(self.BASE, [4096 * (i + 1) for i in range(8)])
        table.unmap_page(self.BASE + 5 * 4096)
        before = copy.deepcopy(table._root)
        with pytest.raises(PageFaultError, match=f"va {self.BASE + 5 * 4096:#x} not mapped"):
            table.unmap_pages(self.BASE, 8)
        assert table._root == before

    def test_single_page_calls_are_one_page_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(PageTable, "map_pages",
                            lambda self, *args: calls.append(("map", args)))
        monkeypatch.setattr(PageTable, "unmap_pages",
                            lambda self, *args: calls.append(("unmap", args)))
        table = PageTable()
        table.map_page(0x1000, 0x2000, False, 0, PteFlags.PRESENT)
        table.unmap_page(0x1000)
        assert calls == [
            ("map", (0x1000, (0x2000,), False, 0, PteFlags.PRESENT)),
            ("unmap", (0x1000, 1, False)),
        ]

    def test_indices_are_the_four_level_fields(self):
        rng = random.Random(0)
        for _ in range(200):
            va = rng.randrange(1 << 48)
            assert PageTable._indices(va) == tuple(
                (va >> (12 + 9 * (3 - level))) & 511 for level in range(4)
            )
