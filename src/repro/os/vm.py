"""Virtual-memory front door: an ``mmap``-style interface with FACIL's
optional MapID argument (paper §V-A).

``AddressSpace.mmap`` allocates physical frames from the buddy allocator,
installs leaf PTEs (huge or base pages), and — when a MapID is supplied —
records it in the huge-page PTEs so every later access through the MMU
carries the mapping choice to the memory controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.os.buddy import BuddyAllocator
from repro.os.mmu import Mmu
from repro.os.page_table import (
    HUGE_SHIFT,
    PAGE_SHIFT,
    PageTable,
    PteFlags,
)
from repro.os.tlb import Tlb

__all__ = ["AddressSpace", "VmArea"]

_HUGE_ORDER = HUGE_SHIFT - PAGE_SHIFT  # order-9 buddy blocks back huge pages
_VA_BASE = 0x0000_1000_0000  # leave low VA unmapped, like a real process


@dataclass
class VmArea:
    """One mmap'ed region (a simplified Linux VMA)."""

    va: int
    length: int
    page_shift: int
    map_id: int
    flags: int
    frames: List[int] = field(default_factory=list)

    @property
    def page_bytes(self) -> int:
        return 1 << self.page_shift

    @property
    def n_pages(self) -> int:
        return self.length // self.page_bytes

    @property
    def end(self) -> int:
        return self.va + self.length


class AddressSpace:
    """A process address space: VA allocator + page table + TLB + frames."""

    def __init__(
        self,
        buddy: BuddyAllocator,
        page_table: Optional[PageTable] = None,
        tlb: Optional[Tlb] = None,
    ):
        self.buddy = buddy
        self.page_table = page_table if page_table is not None else PageTable()
        self.mmu = Mmu(self.page_table, tlb)
        self.areas: Dict[int, VmArea] = {}
        self._va_cursor = _VA_BASE
        #: pages copied by compaction while minting huge pages (cost model)
        self.compaction_moves = 0

    # -- mmap / munmap -----------------------------------------------------

    def mmap(
        self,
        length: int,
        huge: bool = False,
        map_id: int = 0,
        writable: bool = True,
        compact: bool = True,
    ) -> int:
        """Allocate and map *length* bytes; returns the virtual address.

        This is the paper's extended ``mmap()``: the extra *map_id*
        argument is legal only with huge pages, and lands in the PTEs.
        With ``compact=True`` huge-page allocation falls back to buddy
        compaction (counting moved pages in :attr:`compaction_moves`)
        instead of failing when free memory is fragmented.

        The area's frames are taken in one buddy run and its PTEs
        installed in one page-table call; only pages the run could not
        supply fall back to one allocation (or compaction) each.  A
        compaction that moves a frame some area holds re-points that
        area's page.  A failure frees every frame taken, in allocation
        order, and maps nothing.
        """
        if length <= 0:
            raise ValueError("length must be positive")
        if map_id != 0 and not huge:
            raise ValueError("MapID requires huge pages (paper §V-A)")
        page_shift = HUGE_SHIFT if huge else PAGE_SHIFT
        page_bytes = 1 << page_shift
        length = (length + page_bytes - 1) & ~(page_bytes - 1)

        va = (self._va_cursor + page_bytes - 1) & ~(page_bytes - 1)
        self._va_cursor = va + length

        flags = PteFlags.PRESENT | (PteFlags.WRITABLE if writable else 0)
        if map_id != 0:
            flags |= PteFlags.PIM
        order = _HUGE_ORDER if huge else 0
        n_pages = length >> page_shift
        frames = self.buddy.alloc_run(order, n_pages)
        try:
            while len(frames) < n_pages:
                if huge and compact:
                    result = self.buddy.alloc_with_compaction(order)
                    self._repoint(result.displaced)
                    frames.append(result.frame)
                    self.compaction_moves += result.pages_moved
                else:
                    frames.append(self.buddy.alloc(order))
            self.page_table.map_pages(
                va,
                [frame << PAGE_SHIFT for frame in frames],
                huge=huge,
                map_id=map_id,
                flags=flags,
            )
        except Exception:
            self.buddy.free_run(frames)
            raise
        self.areas[va] = VmArea(
            va=va,
            length=length,
            page_shift=page_shift,
            map_id=map_id,
            flags=flags,
            frames=frames,
        )
        return va

    def munmap(self, va: int) -> None:
        """Tear down the region starting at *va* and free its frames.

        One call each removes the PTEs, shoots down the pages' TLB
        entries and frees the frames, all in page order."""
        area = self.areas.pop(va, None)
        if area is None:
            raise ValueError(f"va {va:#x} is not the start of a mapped area")
        n_pages = len(area.frames)
        self.page_table.unmap_pages(va, n_pages, huge=area.page_shift == HUGE_SHIFT)
        self.mmu.tlb.invalidate_run(va, n_pages, area.page_shift)
        self.buddy.free_run(area.frames)

    def _repoint(self, displaced: List[Tuple[int, int]]) -> None:
        """Move every live page whose frame compaction moved, given each
        moved block's ``(old, new)`` first frame: the area's ``frames``,
        its leaf PTE (same flags and MapID, new address) and one TLB
        shootdown.

        The huge frames ``mmap`` has taken but not mapped yet need no
        move: each fills a whole window of the order being minted, and
        compaction only picks a full window when fewer pages than one
        window are free, which fails first.
        """
        moved = dict(displaced)
        for area in self.areas.values():
            for index, frame in enumerate(area.frames):
                if frame in moved:
                    area.frames[index] = moved[frame]
                    page_va = area.va + index * area.page_bytes
                    self.page_table.set_pa(page_va, moved[frame] << PAGE_SHIFT)
                    self.mmu.tlb.invalidate(page_va, area.page_shift)

    def set_area_map_id(self, va: int, page_index: int, map_id: int) -> None:
        """Re-route one huge page of the area at *va* through *map_id*:
        rewrite its PTE's MapID field and shoot down the stale TLB copy.

        This is the per-page step of FACIL's phase switch; callers walk
        every page of the area (journaling each step) so a crash mid-walk
        is recoverable.
        """
        area = self.areas.get(va)
        if area is None:
            raise ValueError(f"va {va:#x} is not the start of a mapped area")
        if area.page_shift != HUGE_SHIFT:
            raise ValueError("MapID requires huge pages (paper §V-A)")
        if not 0 <= page_index < area.n_pages:
            raise ValueError(
                f"page index {page_index} outside area of {area.n_pages} pages"
            )
        page_va = va + page_index * area.page_bytes
        self.page_table.set_map_id(page_va, map_id)
        self.mmu.tlb.invalidate(page_va, area.page_shift)
        if page_index == area.n_pages - 1:
            area.map_id = map_id
            if map_id != 0:
                area.flags |= PteFlags.PIM

    # -- queries ---------------------------------------------------------------

    def area_page_map_ids(self, va: int) -> List[int]:
        """Per-huge-page MapIDs of the area at *va*, read from the PTEs.

        ``VmArea.map_id`` records the id of the last full-area rewrite;
        after a partial migration the area is *mixed* and only the PTEs
        describe it truthfully.  Recovery, the mapping audits, and the
        adaptive controller all use this as ground truth.
        """
        area = self.areas.get(va)
        if area is None:
            raise ValueError(f"va {va:#x} is not the start of a mapped area")
        if area.page_shift != HUGE_SHIFT:
            raise ValueError("MapID requires huge pages (paper §V-A)")
        return [
            self.page_table.map_id_of(va + index * area.page_bytes)
            for index in range(area.n_pages)
        ]

    def area_of(self, va: int) -> VmArea:
        for area in self.areas.values():
            if area.va <= va < area.end:
                return area
        raise KeyError(f"va {va:#x} not inside any mapped area")
