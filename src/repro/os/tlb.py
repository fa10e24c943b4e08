"""Set-associative TLB caching page-table leaves (including MapID).

The paper notes (§V-A) that because the MapID lives in otherwise-unused
PTE bits, TLB entries carry it *without any TLB modification* — the TLB
already stores the full PTE word.  This model does the same: entries cache
:class:`~repro.os.page_table.WalkResult` objects keyed by virtual page
number, supporting both page sizes in one structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.os.page_table import HUGE_SHIFT, PAGE_SHIFT, WalkResult

__all__ = ["Tlb", "TlbStats"]


@dataclass
class TlbStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class _Entry:
    vpn: int
    page_shift: int
    leaf: WalkResult
    stamp: int = 0


class Tlb:
    """LRU set-associative TLB over both 4 KB and 2 MB pages.

    Huge pages are looked up at their own granularity, so one entry covers
    512 base pages — the classic reach advantage that makes huge pages
    attractive for multi-GB LLM weights.
    """

    def __init__(self, n_sets: int = 16, ways: int = 4):
        if n_sets <= 0 or ways <= 0:
            raise ValueError("n_sets and ways must be positive")
        self.n_sets = n_sets
        self.ways = ways
        self._sets: List[List[_Entry]] = [[] for _ in range(n_sets)]
        self._clock = 0
        self.stats = TlbStats()
        #: reliability hook (see :mod:`repro.reliability.faults`): when
        #: set, ``fault_hook.on_invalidate(va, page_shift)`` returning
        #: False swallows a shootdown — the lost-invalidation fault that
        #: leaves a stale MapID being served.
        self.fault_hook = None

    def _set_index(self, vpn: int) -> int:
        return vpn % self.n_sets

    def lookup(self, va: int) -> Optional[WalkResult]:
        """Return the cached leaf covering *va*, or None on a miss."""
        self._clock += 1
        for shift in (HUGE_SHIFT, PAGE_SHIFT):
            vpn = va >> shift
            entry_set = self._sets[self._set_index(vpn)]
            for entry in entry_set:
                if entry.vpn == vpn and entry.page_shift == shift:
                    entry.stamp = self._clock
                    self.stats.hits += 1
                    return entry.leaf
        self.stats.misses += 1
        return None

    def fill(self, va: int, leaf: WalkResult) -> None:
        """Insert the leaf fetched by a walk, evicting LRU if needed."""
        self._clock += 1
        vpn = va >> leaf.page_shift
        entry_set = self._sets[self._set_index(vpn)]
        for entry in entry_set:
            if entry.vpn == vpn and entry.page_shift == leaf.page_shift:
                entry.leaf = leaf
                entry.stamp = self._clock
                return
        if len(entry_set) >= self.ways:
            victim = min(range(len(entry_set)), key=lambda i: entry_set[i].stamp)
            entry_set.pop(victim)
            self.stats.evictions += 1
        entry_set.append(
            _Entry(vpn=vpn, page_shift=leaf.page_shift, leaf=leaf, stamp=self._clock)
        )

    def invalidate(self, va: int, page_shift: int) -> None:
        """Shoot down the page at *va* (a one-page :meth:`invalidate_run`)."""
        self.invalidate_run(va, 1, page_shift)

    def invalidate_run(self, va: int, n: int, page_shift: int) -> None:
        """Shoot down the *n* consecutive pages of ``1 << page_shift``
        bytes from *va*.

        The fault hook sees each page once, in page order, as *n*
        one-page shootdowns would show it, and a page whose shootdown it
        swallows keeps its entry.  The entries of the other pages are
        then dropped, visiting each affected set once.
        """
        first = va >> page_shift
        hook = self.fault_hook
        doomed = {
            first + index
            for index in range(n)
            if hook is None or hook.on_invalidate(va + (index << page_shift), page_shift)
        }
        for set_index in sorted({vpn % self.n_sets for vpn in doomed}):
            entry_set = self._sets[set_index]
            if entry_set:
                entry_set[:] = [
                    e for e in entry_set
                    if not (e.vpn in doomed and e.page_shift == page_shift)
                ]

    def flush(self) -> None:
        for entry_set in self._sets:
            entry_set.clear()
