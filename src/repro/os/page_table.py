"""Radix page table with FACIL's MapID-augmented page-table entries.

The paper (Fig. 11) repurposes *unused* bits of a huge-page PTE to carry
the MapID: a 2 MB page needs 9 fewer physical-frame-number bits than a
4 KB page (21 - 12 = 9 unused bits), and at most 14 extra mappings need
only 4 bits.  This module packs/unpacks 64-bit PTEs with exactly that
layout and implements a 4-level x86-style radix walk supporting both 4 KB
leaves (level 1) and 2 MB huge leaves (level 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "PAGE_SHIFT",
    "HUGE_SHIFT",
    "PteFlags",
    "pack_pte",
    "unpack_pte",
    "PageTable",
    "PageFaultError",
    "WalkResult",
]

PAGE_SHIFT = 12  # 4 KB base pages
HUGE_SHIFT = 21  # 2 MB huge pages
LEVEL_BITS = 9  # 512 entries per level
N_LEVELS = 4  # 48-bit virtual addresses
_INDEX_MASK = (1 << LEVEL_BITS) - 1
#: va shift of each level's index, root first:
#: ``PAGE_SHIFT + LEVEL_BITS * (N_LEVELS - 1 - level)``
_LEVEL_SHIFTS = (39, 30, 21, 12)

#: Number of PTE bits freed when the leaf is a huge page (paper: 21-12=9).
UNUSED_HUGE_BITS = HUGE_SHIFT - PAGE_SHIFT
#: Width of the MapID field FACIL stores in those unused bits.
MAP_ID_BITS = 4
MAP_ID_SHIFT = PAGE_SHIFT  # MapID occupies PTE bits [12, 12+4)

_PFN_SHIFT = PAGE_SHIFT
_PFN_MASK = (1 << 40) - 1  # 40-bit physical frame numbers


class PageFaultError(Exception):
    """Translation attempted on an unmapped virtual address."""


class PteFlags:
    """PTE flag bits (subset of the x86-64 layout)."""

    PRESENT = 1 << 0
    WRITABLE = 1 << 1
    USER = 1 << 2
    HUGE = 1 << 7  # page-size bit: leaf at the PMD level
    PIM = 1 << 9  # software bit: region allocated via pimalloc

    LOW_MASK = PRESENT | WRITABLE | USER | HUGE | PIM


def pack_pte(pfn: int, flags: int, map_id: int = 0) -> int:
    """Pack a 64-bit PTE.

    For huge pages, the physical address bits [12, 21) are necessarily
    zero, so FACIL stores the MapID there — no PTE widening, no extra
    memory (paper Fig. 11).  For 4 KB pages ``map_id`` must be 0: regular
    pages always use the conventional mapping.
    """
    pfn_bits = _pfn_bits(pfn)
    leaf_bits = _leaf_bits(flags, map_id)
    if flags & PteFlags.HUGE and pfn & ((1 << UNUSED_HUGE_BITS) - 1):
        raise ValueError(
            f"huge-page pfn {pfn:#x} must be 2 MB aligned "
            f"({UNUSED_HUGE_BITS} low bits clear)"
        )
    return pfn_bits | leaf_bits


def _pfn_bits(pfn: int) -> int:
    """The PFN field of a PTE."""
    if pfn < 0 or pfn > _PFN_MASK:
        raise ValueError(f"pfn {pfn:#x} out of range")
    return pfn << _PFN_SHIFT


def _leaf_bits(flags: int, map_id: int) -> int:
    """Every PTE bit but the PFN field: the low flags and, in a huge
    leaf, the MapID.  A run of leaves with one *flags* and *map_id*
    checks and computes these once."""
    if not 0 <= map_id < (1 << MAP_ID_BITS):
        raise ValueError(
            f"map_id {map_id} needs more than {MAP_ID_BITS} bits; the paper "
            "bounds the mapping count so 4 bits always suffice"
        )
    if not flags & PteFlags.HUGE:
        if map_id != 0:
            raise ValueError("MapID can only be stored in huge-page PTEs")
        return flags & PteFlags.LOW_MASK
    return (flags & PteFlags.LOW_MASK) | (map_id << MAP_ID_SHIFT)


def unpack_pte(pte: int) -> "WalkResult":
    """Inverse of :func:`pack_pte` (virtual address left as 0)."""
    flags = pte & PteFlags.LOW_MASK
    huge = bool(flags & PteFlags.HUGE)
    if huge:
        map_id = (pte >> MAP_ID_SHIFT) & ((1 << MAP_ID_BITS) - 1)
        pfn = (pte >> _PFN_SHIFT) & _PFN_MASK & ~((1 << UNUSED_HUGE_BITS) - 1)
    else:
        map_id = 0
        pfn = (pte >> _PFN_SHIFT) & _PFN_MASK
    return WalkResult(
        pa=pfn << PAGE_SHIFT,
        page_shift=HUGE_SHIFT if huge else PAGE_SHIFT,
        map_id=map_id,
        flags=flags,
    )


@dataclass(frozen=True)
class WalkResult:
    """Outcome of a page-table walk for one leaf."""

    pa: int  # physical base address of the page
    page_shift: int  # 12 or 21
    map_id: int
    flags: int

    @property
    def page_bytes(self) -> int:
        return 1 << self.page_shift

    @property
    def is_huge(self) -> bool:
        return self.page_shift == HUGE_SHIFT


class PageTable:
    """4-level radix page table keyed by 48-bit virtual addresses."""

    def __init__(self) -> None:
        self._root: Dict[int, object] = {}
        self.walks = 0
        #: reliability hook (see :mod:`repro.reliability.faults`): when
        #: set, ``fault_hook.on_walk(va, result)`` may substitute the
        #: leaf a walk returns (transient walker faults).
        self.fault_hook = None

    @staticmethod
    def _indices(va: int) -> Tuple[int, int, int, int]:
        return (
            (va >> 39) & _INDEX_MASK,
            (va >> 30) & _INDEX_MASK,
            (va >> 21) & _INDEX_MASK,
            (va >> 12) & _INDEX_MASK,
        )

    def _table(self, va: int, depth: int, create: bool = False) -> Any:
        """The table *depth* levels below the root on *va*'s path: the
        table, the leaf PTE word that ends the path early, or None where
        a level is missing and *create* is False (with *create*, missing
        levels are added)."""
        node: Any = self._root
        for shift in _LEVEL_SHIFTS[:depth]:
            index = (va >> shift) & _INDEX_MASK
            child = node.get(index)
            if child is None and create:
                child = node[index] = {}
            if not isinstance(child, dict):
                return child
            node = child
        return node

    def map_pages(
        self,
        va: int,
        pas: Sequence[int],
        huge: bool = False,
        map_id: int = 0,
        flags: int = PteFlags.PRESENT | PteFlags.WRITABLE,
    ) -> None:
        """Install a run of leaves: page *i* maps
        ``va + i * page_bytes -> pas[i]``.

        The whole run is checked before the tree changes, so a failure
        installs nothing.  The flags and the MapID are checked once; the
        path to each parent table is walked once to check it, and once
        more to create it if it is missing.

        Raises:
            ValueError: for a MapID that cannot be encoded, or naming the
                first page that is misaligned, whose frame number cannot
                be encoded, that overlaps an existing huge mapping or is
                already mapped.
        """
        shift = HUGE_SHIFT if huge else PAGE_SHIFT
        page_bytes = 1 << shift
        depth = N_LEVELS - 2 if huge else N_LEVELS - 1
        leaf_bits = _leaf_bits(
            flags | PteFlags.PRESENT | (PteFlags.HUGE if huge else 0), map_id
        )
        # per parent table on the run: a va on its path, the table (None
        # while it does not exist) and the leaves it gains
        runs: List[Tuple[int, Optional[Dict[int, Any]], Dict[int, int]]] = []
        parent = -1
        table: Any = None
        leaves: Dict[int, int] = {}
        for index, pa in enumerate(pas):
            page_va = va + index * page_bytes
            # a huge pa aligned here leaves its MapID bits clear
            if page_va & (page_bytes - 1) or pa & (page_bytes - 1):
                raise ValueError(
                    f"va {page_va:#x} / pa {pa:#x} not aligned to {page_bytes} bytes"
                )
            pte = _pfn_bits(pa >> PAGE_SHIFT) | leaf_bits
            if page_va >> (shift + LEVEL_BITS) != parent:
                parent = page_va >> (shift + LEVEL_BITS)
                table = self._table(page_va, depth)
                if isinstance(table, int):
                    raise ValueError(
                        f"va {page_va:#x} overlaps an existing huge mapping"
                    )
                leaves = {}
                runs.append((page_va, table, leaves))
            slot = (page_va >> shift) & _INDEX_MASK
            if table is not None and slot in table:
                raise ValueError(f"va {page_va:#x} is already mapped")
            leaves[slot] = pte
        for page_va, known, new_leaves in runs:
            if known is None:
                known = self._table(page_va, depth, create=True)
            known.update(new_leaves)

    def unmap_pages(self, va: int, n: int, huge: bool = False) -> None:
        """Remove *n* consecutive leaves starting at *va*.

        Every page is checked before any is removed, so a failure
        removes nothing.  The path to each parent table is walked once.

        Raises:
            PageFaultError: naming the first page that is not mapped.
        """
        shift = HUGE_SHIFT if huge else PAGE_SHIFT
        depth = N_LEVELS - 2 if huge else N_LEVELS - 1
        runs: List[Tuple[Dict[int, Any], List[int]]] = []
        parent = -1
        table: Any = None
        for index in range(n):
            page_va = va + (index << shift)
            if page_va >> (shift + LEVEL_BITS) != parent:
                parent = page_va >> (shift + LEVEL_BITS)
                table = self._table(page_va, depth)
                if isinstance(table, dict):
                    runs.append((table, []))
            slot = (page_va >> shift) & _INDEX_MASK
            if not isinstance(table, dict) or slot not in table:
                raise PageFaultError(f"va {page_va:#x} not mapped")
            runs[-1][1].append(slot)
        for known, slots in runs:
            for slot in slots:
                del known[slot]

    def map_page(
        self,
        va: int,
        pa: int,
        huge: bool = False,
        map_id: int = 0,
        flags: int = PteFlags.PRESENT | PteFlags.WRITABLE,
    ) -> None:
        """Install one leaf mapping va -> pa (a one-page
        :meth:`map_pages`).

        Raises:
            ValueError: on misalignment or an already-mapped address.
        """
        self.map_pages(va, (pa,), huge, map_id, flags)

    def unmap_page(self, va: int, huge: bool = False) -> None:
        """Remove the leaf at *va* (a one-page :meth:`unmap_pages`)."""
        self.unmap_pages(va, 1, huge)

    def _leaf(self, va: int) -> Tuple[Dict[int, Any], int, int]:
        """The table holding the leaf PTE that covers *va*, the leaf's
        index in it and the PTE word, found without MMU side effects.

        Raises:
            PageFaultError: when no leaf covers *va*.
        """
        indices = self._indices(va)
        node: Any = self._root
        for level in range(N_LEVELS):
            entry = node.get(indices[level])
            if entry is None:
                raise PageFaultError(f"va {va:#x} not mapped (level {level})")
            if not isinstance(entry, dict):
                return node, indices[level], entry
            node = entry
        raise PageFaultError(f"va {va:#x}: walk reached depth without a leaf")

    def walk(self, va: int) -> WalkResult:
        """Walk the tree; returns the leaf for *va*.

        Raises:
            PageFaultError: when no leaf covers *va*.
        """
        self.walks += 1
        indices = self._indices(va)
        node = self._root
        for level in range(N_LEVELS):
            entry = node.get(indices[level])
            if entry is None:
                raise PageFaultError(f"va {va:#x} not mapped (level {level})")
            if isinstance(entry, dict):
                node = entry
                continue
            result = unpack_pte(entry)
            expected_level = N_LEVELS - 2 if result.is_huge else N_LEVELS - 1
            if level != expected_level:
                raise PageFaultError(
                    f"malformed table: leaf at level {level} for va {va:#x}"
                )
            if self.fault_hook is not None:
                result = self.fault_hook.on_walk(va, result)
            return result
        raise PageFaultError(f"va {va:#x}: walk reached depth without a leaf")

    def set_map_id(self, va: int, map_id: int) -> int:
        """Rewrite the MapID field of the huge-page leaf PTE covering
        *va* (FACIL's phase switch: the region's bytes are re-routed
        through a different registered mapping).

        Returns the updated PTE value.

        Raises:
            PageFaultError: when no leaf covers *va*.
            ValueError: for a non-huge leaf (4 KB pages have no MapID
                field) or an unencodable *map_id*.
        """
        if not 0 <= map_id < (1 << MAP_ID_BITS):
            raise ValueError(
                f"map_id {map_id} needs more than {MAP_ID_BITS} bits"
            )
        node, index, entry = self._leaf(va)
        if not entry & PteFlags.HUGE:
            raise ValueError(
                f"va {va:#x} is a base-page mapping; MapID lives only "
                "in huge-page PTEs"
            )
        mask = ((1 << MAP_ID_BITS) - 1) << MAP_ID_SHIFT
        updated = (entry & ~mask) | (map_id << MAP_ID_SHIFT)
        if map_id != 0:
            updated |= PteFlags.PIM
        else:
            updated &= ~PteFlags.PIM
        node[index] = updated
        return updated

    def set_pa(self, va: int, pa: int) -> int:
        """Point the leaf PTE covering *va* at the page at *pa*, keeping
        its flags and MapID (compaction moved the page's frame).

        Returns the updated PTE value.

        Raises:
            PageFaultError: when no leaf covers *va*.
            ValueError: when *pa* cannot be encoded in the leaf.
        """
        node, index, entry = self._leaf(va)
        leaf = unpack_pte(entry)
        node[index] = updated = pack_pte(pa >> PAGE_SHIFT, leaf.flags, leaf.map_id)
        return updated

    def map_id_of(self, va: int) -> int:
        """MapID field of the leaf PTE covering *va*, read without MMU
        side effects — no walk counter, no TLB, no fault hook.

        A partial migration (see ``PimAllocator.migrate_pages``) leaves
        an area whose pages carry *different* MapIDs; the PTEs are the
        only truthful record of the split, so audits and the adaptive
        controller read them through this instead of ``VmArea.map_id``.

        Raises:
            PageFaultError: when no leaf covers *va*.
        """
        return unpack_pte(self._leaf(va)[2]).map_id

    def corrupt_pte(self, va: int, xor_mask: int) -> int:
        """Fault-injection backdoor: XOR *xor_mask* into the leaf PTE
        covering *va* (e.g. flip a MapID bit, paper Fig. 11's worry).

        Returns the corrupted PTE value so campaigns can log it.

        Raises:
            PageFaultError: when no leaf covers *va*.
        """
        node, index, entry = self._leaf(va)
        node[index] = corrupted = entry ^ xor_mask
        return corrupted

    def translate(self, va: int) -> WalkResult:
        """Alias of :meth:`walk` (kept for API symmetry with the MMU)."""
        return self.walk(va)
