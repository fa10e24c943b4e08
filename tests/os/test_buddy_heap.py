"""Differential test: the heap-indexed buddy allocator against a
``min(set)`` reference.

``_MinScanBuddy`` below is the allocator as it was before its free sets
got heaps beside them: ``alloc`` scans the free set with ``min()``.
Random operation sequences over every order run on both, mixing
``alloc``, ``free``, ``alloc_run``, ``free_run``,
``alloc_with_compaction``, ``fragment_to``, ``_reserve_range`` and
``from_allocated``.  A run on the heaped allocator is compared with one
``alloc`` or ``free`` per block on the reference: an ``alloc_run`` cut
short where the next ``alloc`` runs out of memory, and a ``free_run``
that stops at a bad frame after freeing the frames before it.  After
each operation the test compares the result (frames, compaction with
its displaced blocks, or exception), ``allocated``, ``pinned`` and every
free list in iteration order, and checks that each heap holds every
free frame of its order and at most ``2 * len(set) + _HEAP_SLACK``
entries.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set

import pytest

from repro.os.buddy import (
    _HEAP_SLACK,
    BuddyAllocator,
    CompactionResult,
    OutOfMemoryError,
)


class _MinScanBuddy:
    """Reference allocator: free sets only, ``alloc`` takes ``min()``."""

    def __init__(self, total_pages: int, max_order: int) -> None:
        self.total_pages = total_pages
        self.max_order = max_order
        self.free_lists: List[Set[int]] = [set() for _ in range(max_order + 1)]
        self.allocated: Dict[int, int] = {}
        self.pinned: List[int] = []
        frame, block = 0, 1 << max_order
        while frame + block <= total_pages:
            self.free_lists[max_order].add(frame)
            frame += block
        remaining, order = total_pages - frame, max_order - 1
        while remaining > 0 and order >= 0:
            if remaining >= 1 << order:
                self.free_lists[order].add(frame)
                frame += 1 << order
                remaining -= 1 << order
            else:
                order -= 1

    @classmethod
    def from_allocated(cls, total_pages, allocated_pages, max_order):
        arena = cls(total_pages, max_order)
        for blocks in arena.free_lists:
            blocks.clear()
        arena.allocated = {frame: 0 for frame in allocated_pages}
        level = set(sorted(set(range(total_pages)) - set(allocated_pages)))
        for order in range(max_order):
            block = 1 << order
            promoted = {
                frame for frame in level
                if not frame & ((block << 1) - 1) and frame + block in level
            }
            arena.free_lists[order].update(
                level - promoted - {f + block for f in promoted}
            )
            level = promoted
        arena.free_lists[max_order].update(level)
        return arena

    @property
    def free_pages(self) -> int:
        return sum(len(b) << o for o, b in enumerate(self.free_lists))

    def fmfi(self, order: int) -> float:
        free = self.free_pages
        if free == 0:
            return 1.0
        requested = free / (1 << order)
        satisfiable = sum(
            len(self.free_lists[i]) << (i - order)
            for i in range(order, self.max_order + 1)
        )
        return max(0.0, (requested - satisfiable) / requested)

    def alloc(self, order: int = 0) -> int:
        if not 0 <= order <= self.max_order:
            raise ValueError(f"order {order} out of range")
        for source in range(order, self.max_order + 1):
            if self.free_lists[source]:
                frame = min(self.free_lists[source])
                self.free_lists[source].discard(frame)
                for split in range(source - 1, order - 1, -1):
                    self.free_lists[split].add(frame + (1 << split))
                self.allocated[frame] = order
                return frame
        raise OutOfMemoryError(f"no free block of order {order}")

    def free(self, frame: int) -> None:
        order = self.allocated.pop(frame, None)
        if order is None:
            raise ValueError(f"frame {frame} is not the start of an allocation")
        while order < self.max_order:
            buddy = frame ^ (1 << order)
            if buddy in self.free_lists[order] and buddy + (1 << order) <= self.total_pages:
                self.free_lists[order].discard(buddy)
                frame = min(frame, buddy)
                order += 1
            else:
                break
        self.free_lists[order].add(frame)

    def fragment_to(self, target_fmfi, order, rng, tolerance=0.05):
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
            self.free_lists[source].discard(frame)
            for split in range(source - 1, -1, -1):
                self.free_lists[split].add(frame + (1 << split))
            self.allocated[frame] = 0
            self.pinned.append(frame)
            guard += 1
            if guard > self.total_pages:
                break
        return self.fmfi(order)

    def alloc_with_compaction(self, order: int) -> CompactionResult:
        try:
            return CompactionResult(frame=self.alloc(order), pages_moved=0)
        except OutOfMemoryError:
            pass
        block = 1 << order
        if self.free_pages < block:
            raise OutOfMemoryError(f"only {self.free_pages} pages free; need {block}")
        free_pages = {
            page for o, blocks in enumerate(self.free_lists)
            for frame in blocks for page in range(frame, frame + (1 << o))
        }
        window, best = None, -1
        for frame in range(0, self.total_pages - block + 1, block):
            count = sum(1 for p in range(frame, frame + block) if p in free_pages)
            if count > best:
                window, best = frame, count
            if best == block:
                break
        if window is None:
            raise OutOfMemoryError(f"no compactable window of order {order}")
        pages = set(range(window, window + block))
        residents = [
            (frame, o) for frame, o in list(self.allocated.items())
            if set(range(frame, frame + (1 << o))) & pages
        ]
        for frame, _ in residents:
            self.free(frame)
        self._reserve_range(window, block)
        self.allocated[window] = order
        moved, displaced = 0, []
        for frame, o in residents:
            moved += 1 << o
            displaced.append((frame, self.alloc(o)))
        self.pinned = [dict(displaced).get(f, f) for f in self.pinned]
        return CompactionResult(frame=window, pages_moved=moved, displaced=displaced)

    def _reserve_range(self, start: int, count: int) -> None:
        end, remaining, progress = start + count, count, True
        while remaining > 0 and progress:
            progress = False
            for order in range(self.max_order, -1, -1):
                for frame in list(self.free_lists[order]):
                    size = 1 << order
                    if frame + size <= start or frame >= end:
                        continue
                    self.free_lists[order].discard(frame)
                    progress = True
                    if start <= frame and frame + size <= end:
                        remaining -= size
                    else:
                        self.free_lists[order - 1].add(frame)
                        self.free_lists[order - 1].add(frame + (size >> 1))
                    break
                if progress:
                    break
        if remaining > 0:
            raise OutOfMemoryError(
                f"range [{start}, {end}) is not entirely free "
                f"({remaining} pages missing)"
            )


def _outcome(call):
    try:
        return ("ok", call())
    except (OutOfMemoryError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _alloc_one_by_one(reference: _MinScanBuddy, order: int, n: int) -> List[int]:
    """``alloc_run`` as *n* ``alloc`` calls: stop at the first one that
    runs out of memory."""
    frames: List[int] = []
    for _ in range(n):
        try:
            frames.append(reference.alloc(order))
        except OutOfMemoryError:
            break
    return frames


def _free_one_by_one(reference: _MinScanBuddy, frames: List[int]) -> None:
    for frame in frames:
        reference.free(frame)


def _assert_same(heaped: BuddyAllocator, reference: _MinScanBuddy) -> None:
    assert list(heaped.allocated.items()) == list(reference.allocated.items())
    assert heaped.pinned == reference.pinned
    for order, blocks in enumerate(heaped.free_lists):
        assert list(blocks) == list(reference.free_lists[order])
        heap = heaped._heaps[order]
        assert blocks <= set(heap)
        assert len(heap) <= 2 * len(blocks) + _HEAP_SLACK


def _run(seed: int, n_ops: int) -> None:
    rng = random.Random(seed)
    max_order = rng.randrange(0, 10)
    total_pages = rng.randrange(1, 5) * (1 << max_order) + rng.randrange(1 << max_order)
    heaped = BuddyAllocator(total_pages, max_order)
    reference = _MinScanBuddy(total_pages, max_order)
    _assert_same(heaped, reference)
    for _ in range(n_ops):
        op = rng.choice(("alloc", "alloc", "alloc", "free", "free", "alloc_run",
                         "free_run", "compact", "fragment", "reserve", "rebuild"))
        if op == "alloc":
            order = rng.randrange(0, max_order + 2)  # one past the top
            results = [_outcome(lambda a=a: a.alloc(order)) for a in (heaped, reference)]
        elif op == "free":
            live = list(reference.allocated)
            frame = (
                rng.choice(live) if live and rng.random() < 0.9
                else rng.randrange(total_pages)  # mostly not an allocation
            )
            results = [_outcome(lambda a=a: a.free(frame)) for a in (heaped, reference)]
        elif op == "alloc_run":
            order = rng.randrange(0, max_order + 2)  # one past the top
            # small runs, or more blocks than the arena holds
            n = rng.choice(
                (rng.randrange(1, 9), 2 * (total_pages >> min(order, max_order)) + 1)
            )
            results = [
                _outcome(lambda: heaped.alloc_run(order, n)),
                _outcome(lambda: _alloc_one_by_one(reference, order, n)),
            ]
        elif op == "free_run":
            live = list(reference.allocated)
            frames = rng.sample(live, rng.randrange(len(live) + 1))
            if rng.random() < 0.4:
                # a frame freed twice, or one that is (mostly) no allocation
                if frames and rng.random() < 0.5:
                    bad = frames[0]
                else:
                    bad = rng.randrange(total_pages + 1)
                frames.insert(rng.randrange(len(frames) + 1), bad)
            results = [
                _outcome(lambda: heaped.free_run(frames)),
                _outcome(lambda: _free_one_by_one(reference, frames)),
            ]
        elif op == "compact":
            order = rng.randrange(0, max_order + 1)
            results = [
                _outcome(lambda a=a: a.alloc_with_compaction(order))
                for a in (heaped, reference)
            ]
        elif op == "fragment":
            target = rng.random()
            order = rng.randrange(0, max_order + 1)
            draw = rng.randrange(1 << 30)
            results = [
                _outcome(lambda a=a: a.fragment_to(target, order, random.Random(draw)))
                for a in (heaped, reference)
            ]
        elif op == "reserve":
            start = rng.randrange(total_pages)
            count = rng.randrange(1, min(8, total_pages - start) + 1)
            results = [
                _outcome(lambda a=a: a._reserve_range(start, count))
                for a in (heaped, reference)
            ]
        else:
            pages = set(rng.sample(range(total_pages), rng.randrange(total_pages)))
            heaped = BuddyAllocator.from_allocated(total_pages, pages, max_order)
            reference = _MinScanBuddy.from_allocated(total_pages, pages, max_order)
            results = []
        if results:
            assert results[0] == results[1], op
        _assert_same(heaped, reference)


@pytest.mark.parametrize("seed", range(24))
def test_matches_min_scan_reference(seed):
    _run(seed, n_ops=250)


def test_every_order_is_exercised():
    """The seeds above draw max_order from 0 to 9."""
    orders = {random.Random(seed).randrange(0, 10) for seed in range(24)}
    assert orders == set(range(10))


def test_runs_stop_where_single_calls_stop():
    """A run cut short by running out of memory, and a free run that
    meets a bad frame in its middle, leave what single calls leave."""
    heaped = BuddyAllocator(3 * 8 + 5, max_order=3)
    reference = _MinScanBuddy(3 * 8 + 5, max_order=3)
    frames = heaped.alloc_run(2, 10)
    assert frames == _alloc_one_by_one(reference, 2, 10) == [24, 0, 4, 8, 12, 16, 20]
    _assert_same(heaped, reference)
    run = [8, 0, 8, 20]  # the second 8 is no longer an allocation
    assert _outcome(lambda: heaped.free_run(run)) == _outcome(
        lambda: _free_one_by_one(reference, run)
    ) == ("ValueError", "frame 8 is not the start of an allocation")
    assert 20 in heaped.allocated and 0 not in heaped.allocated
    _assert_same(heaped, reference)
