"""Buddy physical-page allocator with fragmentation metrics.

FACIL stores weight matrices in 2 MB huge pages, so its practicality rests
on the OS being able to mint physically-contiguous 2 MB blocks.  This
module implements the classic binary-buddy allocator, the *free memory
fragmentation index* (FMFI) of Gorman & Whitcroft used by the paper's
Table I, controlled fragmentation injection for experiments, and a
compaction model that counts how many in-use pages must move to
reconstitute a high-order block.

Each free set has a lazily invalidated min-heap beside it, so ``alloc``
pops the lowest free frame in O(log n) instead of scanning the set.
The sets stay the source of truth, and their iteration order, which
``fragment_to`` and ``_reserve_range`` depend on, is untouched by the
heaps.

``alloc_run`` and ``free_run`` take a run of blocks in one call, as
``mmap`` and ``munmap`` do for an area's pages; ``alloc`` and ``free``
are their one-block cases.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

__all__ = ["BuddyAllocator", "CompactionResult", "OutOfMemoryError"]

#: stale entries a heap may carry beyond twice its free set's size
#: before it is rebuilt from the set
_HEAP_SLACK = 16


class OutOfMemoryError(Exception):
    """No block of the requested order can be produced, even by compaction."""


@dataclass
class CompactionResult:
    """Outcome of minting one high-order block via compaction."""

    frame: int
    pages_moved: int
    #: ``(old, new)`` first frame of each block compaction moved out of
    #: the window, in the order it moved them; the owner of a moved
    #: block must follow it to its new frame
    displaced: List[Tuple[int, int]] = field(default_factory=list)


class BuddyAllocator:
    """Binary buddy allocator over page frames.

    Args:
        total_pages: number of order-0 page frames managed.
        max_order: largest block order (2**max_order pages); order 9 with
            4 KB pages is a 2 MB huge page.
    """

    def __init__(self, total_pages: int, max_order: int = 9):
        if total_pages <= 0:
            raise ValueError("total_pages must be positive")
        if max_order < 0:
            raise ValueError(f"max_order must be >= 0, got {max_order}")
        self.total_pages = total_pages
        self.max_order = max_order
        self.free_lists: List[Set[int]] = [set() for _ in range(max_order + 1)]
        #: per-order min-heaps over ``free_lists``: every free frame has
        #: an entry; entries whose frame left the set are stale and are
        #: skipped when popped
        self._heaps: List[List[int]] = [[] for _ in range(max_order + 1)]
        #: frame -> order of the allocation starting at that frame
        self.allocated: Dict[int, int] = {}
        #: pages pinned by fragment_to (model long-lived unmovable pages)
        self.pinned: List[int] = []
        frame = 0
        block = 1 << max_order
        while frame + block <= total_pages:
            self._add(max_order, frame)
            frame += block
        # Tail pages that do not fill a max-order block.
        remaining = total_pages - frame
        order = max_order - 1
        while remaining > 0 and order >= 0:
            block = 1 << order
            if remaining >= block:
                self._add(order, frame)
                frame += block
                remaining -= block
            else:
                order -= 1

    @classmethod
    def from_allocated(
        cls, total_pages: int, allocated_pages: Set[int], max_order: int = 9
    ) -> "BuddyAllocator":
        """Construct an arena whose *allocated_pages* (order-0 frames) are
        in use and whose complement is coalesced into maximal free blocks.

        Used by the fragmentation experiments to build arbitrary
        occupancy patterns directly instead of replaying allocation
        histories.

        Raises:
            ValueError: when a page lies outside ``[0, total_pages)``.
        """
        outside = [page for page in allocated_pages if not 0 <= page < total_pages]
        if outside:
            raise ValueError(
                f"allocated page {min(outside)} outside [0, {total_pages})"
            )
        arena = cls(total_pages, max_order)
        for order in range(max_order + 1):
            arena.free_lists[order].clear()
        arena.allocated = {frame: 0 for frame in allocated_pages}
        current = sorted(set(range(total_pages)) - set(allocated_pages))
        level: Set[int] = set(current)
        for order in range(max_order):
            promoted: Set[int] = set()
            block = 1 << order
            for frame in level:
                if frame & ((block << 1) - 1):
                    continue  # not aligned for promotion
                if frame + block in level:
                    promoted.add(frame)
            leftovers = level - promoted - {f + block for f in promoted}
            arena.free_lists[order].update(leftovers)
            level = promoted
        arena.free_lists[max_order].update(level)
        for order in range(max_order + 1):
            arena._reindex(order)
        return arena

    # -- bookkeeping -------------------------------------------------------

    @property
    def free_pages(self) -> int:
        return sum(len(blocks) << order for order, blocks in enumerate(self.free_lists))

    @property
    def used_pages(self) -> int:
        return self.total_pages - self.free_pages

    def free_blocks(self, order: int) -> int:
        return len(self.free_lists[order])

    # -- free-set mutation (keeps the heaps in step) ---------------------------

    def _add(self, order: int, frame: int) -> None:
        blocks = self.free_lists[order]
        blocks.add(frame)
        heap = self._heaps[order]
        heapq.heappush(heap, frame)
        if len(heap) > 2 * len(blocks) + _HEAP_SLACK:
            self._reindex(order)

    def _discard(self, order: int, frame: int) -> None:
        blocks = self.free_lists[order]
        blocks.discard(frame)
        if len(self._heaps[order]) > 2 * len(blocks) + _HEAP_SLACK:
            self._reindex(order)

    def _reindex(self, order: int) -> None:
        """Rebuild the heap of *order* from its free set, dropping every
        stale entry."""
        heap = list(self.free_lists[order])
        heapq.heapify(heap)
        self._heaps[order] = heap

    # -- allocation ------------------------------------------------------------

    def alloc(self, order: int = 0) -> int:
        """Allocate a block of 2**order pages; returns the first frame (a
        one-block :meth:`alloc_run`).

        Raises:
            OutOfMemoryError: when no block of sufficient order is free.
        """
        frames = self.alloc_run(order, 1)
        if not frames:
            raise OutOfMemoryError(f"no free block of order {order}")
        return frames[0]

    def alloc_run(self, order: int, n: int) -> List[int]:
        """Allocate up to *n* blocks of 2**order pages: the frames *n*
        calls of :meth:`alloc` would return, in the same order, with the
        same splits.

        Returns early, with fewer frames, where the next :meth:`alloc`
        would raise :class:`OutOfMemoryError`.
        """
        if not 0 <= order <= self.max_order:
            raise ValueError(f"order {order} out of range")
        free_lists, heaps, allocated = self.free_lists, self._heaps, self.allocated
        sources = range(order, self.max_order + 1)
        frames: List[int] = []
        for _ in range(n):
            for source in sources:
                blocks = free_lists[source]
                if blocks:
                    break
            else:
                break  # no block of sufficient order is free
            # the lowest free frame: pop past stale heap entries
            heap = heaps[source]
            frame = heapq.heappop(heap)
            while frame not in blocks:
                frame = heapq.heappop(heap)
            self._discard(source, frame)
            # Split down to the requested order, freeing the buddies.
            for split in range(source - 1, order - 1, -1):
                self._add(split, frame + (1 << split))
            allocated[frame] = order
            frames.append(frame)
        return frames

    def free(self, frame: int) -> None:
        """Free a previously allocated block, merging buddies eagerly (a
        one-block :meth:`free_run`)."""
        self.free_run((frame,))

    def free_run(self, frames: Iterable[int]) -> None:
        """Free each block of *frames* in turn, merging buddies eagerly,
        exactly as one :meth:`free` per frame.

        Raises:
            ValueError: at the first frame that does not start an
                allocation, after the frames before it are freed.
        """
        free_lists, allocated = self.free_lists, self.allocated
        for frame in frames:
            order = allocated.pop(frame, None)
            if order is None:
                raise ValueError(f"frame {frame} is not the start of an allocation")
            while order < self.max_order:
                buddy = frame ^ (1 << order)
                if buddy in free_lists[order] and buddy + (1 << order) <= self.total_pages:
                    self._discard(order, buddy)
                    frame = min(frame, buddy)
                    order += 1
                else:
                    break
            self._add(order, frame)

    # -- fragmentation -----------------------------------------------------------

    def fmfi(self, order: int) -> float:
        """Free memory fragmentation index for *order* (Gorman & Whitcroft).

        0 means all free memory already sits in blocks of at least *order*;
        values near 1 mean the free memory is shattered into smaller blocks.
        """
        free = self.free_pages
        if free == 0:
            return 1.0
        requested_blocks = free / (1 << order)
        satisfiable = sum(
            len(self.free_lists[i]) << (i - order)
            for i in range(order, self.max_order + 1)
        )
        return max(0.0, (requested_blocks - satisfiable) / requested_blocks)

    def fragment_to(
        self,
        target_fmfi: float,
        order: int,
        rng: Optional[random.Random] = None,
        tolerance: float = 0.05,
    ) -> float:
        """Inject fragmentation until ``fmfi(order)`` reaches *target_fmfi*.

        Strategy: temporarily allocate order-0 pages scattered across free
        high-order blocks (pinning one page per block shatters it), until
        the index reaches the target.  The pinned pages remain allocated —
        they model long-lived kernel/app pages — and are tracked so tests
        can release them.

        Returns the achieved FMFI.
        """
        rng = rng or random.Random(0)
        guard = 0
        while self.fmfi(order) + tolerance < target_fmfi:
            candidates = [
                (source, frame)
                for source in range(order, self.max_order + 1)
                for frame in self.free_lists[source]
            ]
            if not candidates:
                break
            source, frame = rng.choice(candidates)
            # Pin one page in the middle of the block, splitting it.
            self._discard(source, frame)
            for split in range(source - 1, -1, -1):
                self._add(split, frame + (1 << split))
            self.allocated[frame] = 0
            self.pinned.append(frame)
            guard += 1
            if guard > self.total_pages:
                break
        return self.fmfi(order)

    # -- compaction ------------------------------------------------------------

    def alloc_with_compaction(self, order: int) -> CompactionResult:
        """Allocate a block of *order*, compacting if necessary.

        Compaction model: pick the aligned frame window with the fewest
        in-use pages whose occupants are all movable, migrate those pages
        into other free space, and mint the block.  The number of moved
        pages is the cost the load-time model charges (Table I).
        """
        try:
            return CompactionResult(frame=self.alloc(order), pages_moved=0)
        except OutOfMemoryError:
            pass
        block = 1 << order
        if self.free_pages < block:
            raise OutOfMemoryError(
                f"only {self.free_pages} pages free; need {block}"
            )
        window = self._cheapest_window(order)
        if window is None:
            raise OutOfMemoryError(f"no compactable window of order {order}")
        return self._evacuate_window(window, order)

    def _cheapest_window(self, order: int) -> Optional[int]:
        """First aligned window with the most free pages (fewest moves).

        Called only after ``alloc(order)`` failed, so every free block
        is below *order* and lies inside one aligned window; blocks in a
        trailing partial window count for none.
        """
        counts = [0] * (self.total_pages >> order)
        if not counts:
            return None
        for block_order, blocks in enumerate(self.free_lists[:order]):
            for frame in blocks:
                window = frame >> order
                if window < len(counts):
                    counts[window] += 1 << block_order
        return counts.index(max(counts)) << order

    def _evacuate_window(self, window: int, order: int) -> CompactionResult:
        """Move every allocation overlapping the window elsewhere and leave
        the whole window allocated as one block of *order*.

        A resident block is freed and re-allocated outside the reserved
        window (the cost of copying its pages is what the caller charges).
        """
        block = 1 << order
        end = window + block
        residents = [
            (frame, res_order)
            for frame, res_order in self.allocated.items()
            if frame < end and frame + (1 << res_order) > window
        ]
        self.free_run(frame for frame, _ in residents)
        self._reserve_range(window, block)
        self.allocated[window] = order
        # a new home for the displaced data
        displaced = [(frame, self.alloc(res_order)) for frame, res_order in residents]
        # a moved pinned page stays pinned at its new frame
        moved = dict(displaced)
        self.pinned = [moved.get(f, f) for f in self.pinned]
        return CompactionResult(
            frame=window,
            pages_moved=sum(1 << res_order for _, res_order in residents),
            displaced=displaced,
        )

    def _reserve_range(self, start: int, count: int) -> None:
        """Remove the exact pages ``[start, start+count)`` from the free
        lists, splitting any free block that overlaps the range.

        Raises:
            OutOfMemoryError: if any page in the range is currently in use.
        """
        end = start + count
        remaining = count
        progress = True
        while remaining > 0 and progress:
            progress = False
            for order in range(self.max_order, -1, -1):
                for frame in list(self.free_lists[order]):
                    size = 1 << order
                    if frame + size <= start or frame >= end:
                        continue
                    self._discard(order, frame)
                    progress = True
                    if start <= frame and frame + size <= end:
                        remaining -= size  # fully consumed
                    else:
                        # Straddles the range boundary: split and retry.
                        half = size >> 1
                        self._add(order - 1, frame)
                        self._add(order - 1, frame + half)
                    break
                if progress:
                    break
        if remaining > 0:
            raise OutOfMemoryError(
                f"range [{start}, {end}) is not entirely free "
                f"({remaining} pages missing)"
            )
