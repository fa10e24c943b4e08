"""MMU: virtual-to-physical translation with TLB and page-table walk.

The MMU is where FACIL's data path starts: a load/store presents a virtual
address; the MMU returns the physical address *plus the MapID* recorded in
the leaf PTE, both of which travel to the memory controller (paper
Fig. 7b/c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.os.page_table import PageTable
from repro.os.tlb import Tlb

__all__ = ["Mmu", "Translation"]


@dataclass(frozen=True)
class Translation:
    """What the MMU hands the memory controller for one access."""

    pa: int
    map_id: int
    flags: int
    page_shift: int


class Mmu:
    """TLB-fronted translation over a :class:`PageTable`."""

    def __init__(self, page_table: PageTable, tlb: Optional[Tlb] = None):
        self.page_table = page_table
        self.tlb = tlb if tlb is not None else Tlb()

    def translate(self, va: int) -> Translation:
        """Translate one virtual address (TLB hit or table walk)."""
        leaf = self.tlb.lookup(va)
        if leaf is None:
            leaf = self.page_table.walk(va)
            self.tlb.fill(va, leaf)
        offset = va & (leaf.page_bytes - 1)
        return Translation(
            pa=leaf.pa + offset,
            map_id=leaf.map_id,
            flags=leaf.flags,
            page_shift=leaf.page_shift,
        )

    def translate_range(self, va: int, nbytes: int) -> List[Tuple[int, int, int]]:
        """Split ``[va, va+nbytes)`` into physically-contiguous runs.

        Returns ``(pa, length, map_id)`` triples, one per page-crossing
        segment, in virtual-address order.  This is the unit at which the
        memory controller can be driven with a single MapID.
        """
        runs: List[Tuple[int, int, int]] = []
        end = va + nbytes
        cursor = va
        while cursor < end:
            t = self.translate(cursor)
            page_end = (cursor | ((1 << t.page_shift) - 1)) + 1
            length = min(end, page_end) - cursor
            if runs and runs[-1][0] + runs[-1][1] == t.pa and runs[-1][2] == t.map_id:
                pa, prev_len, map_id = runs[-1]
                runs[-1] = (pa, prev_len + length, map_id)
            else:
                runs.append((t.pa, length, t.map_id))
            cursor += length
        return runs
