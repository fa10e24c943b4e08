"""Golden OS oracle: pinned digests of the OS substrate under seeded churn.

Each case drives the buddy allocator, the page table and the address
space (alone or under ``pimalloc``) through one seeded scenario and
hashes everything the scenario can change:

* the frames ``alloc`` and ``alloc_with_compaction`` returned, with the
  pages each compaction moved;
* every ``free_lists[o]`` in *iteration* order (``fragment_to`` draws
  its victims in that order), ``allocated`` in insertion order,
  ``pinned`` and ``compaction_moves``;
* every page-table leaf (va -> PTE word), every ``VmArea`` and every
  cached TLB entry;
* the mapping table's slots with their refcounts, and every journal
  transaction with its intent, steps and commit flag.

The scenarios: MoE-style ``pimalloc``/``free`` churn on
``expert_pool_org(ExpertPlacementSpec())``; mixed 4 KiB and 2 MiB
``mmap``/``munmap`` with MMU traffic between them; ``mmap`` calls that
run out of memory midway, with and without compaction; ``fragment_to``
followed by ``alloc_with_compaction``; ``from_allocated`` followed by
``simulate_weight_load``; and ``switch_mapping`` plus ``migrate_pages``
on a functional, journaled ``PimSystem`` whose fault injector swallows
TLB shootdowns.

The digests were captured at commit
d509d2a2391c1f88ddadd286f7ebc93dbc89dd36, where ``alloc`` still scanned
its free set with ``min()``, ``mmap`` mapped one page per call and
``pimalloc`` rebuilt its placement on every call.  A mismatch names the
case.  Print fresh digests with ``python -m tests.os.test_os_golden``
only when a change is *meant* to move OS state.
"""

from __future__ import annotations

import hashlib
import random
from collections import OrderedDict
from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.adaptive.arena import ADAPTIVE_ARENA_ORG
from repro.core.pimalloc import PimSystem
from repro.core.selector import MatrixConfig
from repro.os.buddy import BuddyAllocator, OutOfMemoryError
from repro.os.loadsim import build_fragmented_arena, simulate_weight_load
from repro.os.page_table import PAGE_SHIFT, PageTable
from repro.os.tlb import Tlb
from repro.os.vm import AddressSpace
from repro.pim.config import aim_config_for
from repro.reliability.faults import FaultInjector
from repro.workloads.moe import expert_pool_org
from repro.workloads.specs import ExpertPlacementSpec

HUGE = 2 << 20
_LEVEL_SHIFTS = (39, 30, 21, 12)


class _Digest:
    """sha256 over labelled ``repr``s, in the order they are added."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, label: str, value) -> None:
        self._h.update(f"{label}={value!r}\n".encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _leaves(table: PageTable) -> List[Tuple[int, int]]:
    """Every leaf of the radix tree as ``(va, PTE word)``, by va."""
    out: List[Tuple[int, int]] = []

    def visit(node: dict, level: int, base: int) -> None:
        for index, entry in node.items():
            va = base | (index << _LEVEL_SHIFTS[level])
            if isinstance(entry, dict):
                visit(entry, level + 1, va)
            else:
                out.append((va, entry))

    visit(table._root, 0, 0)
    return sorted(out)


def _buddy_state(d: _Digest, buddy: BuddyAllocator) -> None:
    for order, blocks in enumerate(buddy.free_lists):
        d.add(f"free[{order}]", list(blocks))
    d.add("allocated", list(buddy.allocated.items()))
    d.add("pinned", list(buddy.pinned))


def _space_state(d: _Digest, space: AddressSpace) -> None:
    _buddy_state(d, space.buddy)
    d.add("compaction_moves", space.compaction_moves)
    d.add("leaves", _leaves(space.page_table))
    d.add("areas", [
        (a.va, a.length, a.page_shift, a.map_id, a.flags, list(a.frames))
        for a in space.areas.values()
    ])
    tlb = space.mmu.tlb
    d.add("tlb", [
        [(e.vpn, e.page_shift, e.leaf, e.stamp) for e in entries]
        for entries in tlb._sets
    ])
    d.add("tlb_stats", tlb.stats)


def _system_state(d: _Digest, system: PimSystem) -> None:
    _space_state(d, system.space)
    table = system.controller.table
    d.add("table", [
        None if entry is None else (entry.name, list(entry.fields.items()), count)
        for entry, count in zip(table._entries, table._refcounts)
    ])
    d.add("journal", [
        (txn.txn_id, txn.op, txn.intent, txn.steps, txn.committed)
        for txn in system.journal.transactions()
    ])


def _oom(d: _Digest, label: str, call: Callable[[], object]):
    try:
        return call()
    except OutOfMemoryError as exc:
        d.add(f"{label}:oom", str(exc))
        return None


# -- cases -------------------------------------------------------------------


def _moe_churn() -> str:
    """LRU expert reloads through a journaled pimalloc, three shapes."""
    spec = ExpertPlacementSpec()
    org = expert_pool_org(spec)
    system = PimSystem.build(
        org, aim_config_for(org), functional=False, journal=True
    )
    shapes = (
        MatrixConfig(rows=spec.expert_rows, cols=spec.expert_cols),
        MatrixConfig(rows=512, cols=512),
        MatrixConfig(rows=64, cols=8192),
    )
    d = _Digest()
    rng = random.Random(3)
    resident: "OrderedDict[int, object]" = OrderedDict()
    for _ in range(80):
        expert = min(rng.randrange(8), rng.randrange(8))  # skewed popularity
        if expert in resident:
            resident.move_to_end(expert)
            continue
        if len(resident) >= spec.resident_experts:
            _, victim = resident.popitem(last=False)
            victim.free()
        tensor = system.pimalloc(shapes[expert % 3])
        resident[expert] = tensor
        d.add("load", (expert, tensor.va, tensor.map_id,
                       list(system.space.areas[tensor.va].frames)))
    _system_state(d, system)
    while resident:
        resident.popitem(last=False)[1].free()
    _system_state(d, system)
    return d.hexdigest()


def _mixed_mmap() -> str:
    """4 KiB and 2 MiB areas come and go while the MMU caches them."""
    buddy = BuddyAllocator(6 * 512 + 200, max_order=9)
    space = AddressSpace(buddy, tlb=Tlb(n_sets=8, ways=2))
    d = _Digest()
    rng = random.Random(11)
    live: List[int] = []
    for step in range(160):
        if live and rng.random() < 0.45:
            va = live.pop(rng.randrange(len(live)))
            space.munmap(va)
            d.add("munmap", va)
            continue
        huge = rng.random() < 0.3
        length = rng.randint(1, 3 * HUGE if huge else 40 << PAGE_SHIFT)
        va = _oom(d, f"mmap{step}", lambda: space.mmap(
            length, huge=huge, writable=rng.random() < 0.8, compact=False
        ))
        if va is None:
            continue
        live.append(va)
        area = space.areas[va]
        for _ in range(3):
            t = space.mmu.translate(va + rng.randrange(area.length))
            d.add("translate", (t.pa, t.page_shift, t.flags))
        d.add("mmap", (va, list(area.frames)))
    _space_state(d, space)
    return d.hexdigest()


def _mmap_oom() -> str:
    """mmap runs out of memory midway and must give every frame back."""
    d = _Digest()
    rng = random.Random(17)
    resident = set(rng.sample(range(5 * 512), 40))
    buddy = BuddyAllocator.from_allocated(8 * 512, resident, max_order=9)
    space = AddressSpace(buddy)
    _oom(d, "huge-compact", lambda: space.mmap(9 * HUGE, huge=True))
    _space_state(d, space)
    _oom(d, "huge-plain", lambda: space.mmap(8 * HUGE, huge=True, compact=False))
    _space_state(d, space)
    kept = space.mmap(2 * HUGE, huge=True)
    _oom(d, "base", lambda: space.mmap(buddy.free_pages + 7 << PAGE_SHIFT))
    _space_state(d, space)
    space.munmap(kept)
    d.add("after-munmap", space.mmap(4 * HUGE, huge=True))
    _space_state(d, space)
    return d.hexdigest()


def _fragment_compact() -> str:
    """fragment_to, then huge blocks minted by compaction until OOM."""
    d = _Digest()
    rng = random.Random(5)
    buddy = BuddyAllocator(16 * 512 + 37, max_order=9)
    frames = [buddy.alloc(rng.randrange(10)) for _ in range(12)]
    d.add("frames", frames)
    d.add("fmfi-4", buddy.fragment_to(0.5, 4, random.Random(1)))
    d.add("fmfi-9", buddy.fragment_to(0.8, 9, random.Random(2)))
    _buddy_state(d, buddy)
    for frame in frames[::3]:
        buddy.free(frame)
    for _ in range(20):
        result = _oom(d, "compact", lambda: buddy.alloc_with_compaction(9))
        if result is None:
            break
        d.add("compacted", (result.frame, result.pages_moved))
    for order in (0, 3, 0, 5, 1):
        d.add("alloc", _oom(d, f"alloc{order}", lambda: buddy.alloc(order)))
    _buddy_state(d, buddy)
    return d.hexdigest()


def _from_allocated_load() -> str:
    """Arenas built from occupancy patterns, then Table I weight loads."""
    d = _Digest()
    rng = random.Random(9)
    resident = set(rng.sample(range(4096), 300))
    buddy = BuddyAllocator.from_allocated(4096 + 100, resident, max_order=9)
    _buddy_state(d, buddy)
    frames = []
    for _ in range(30):
        order = rng.choice((0, 0, 1, 2, 4, 9))
        frame = _oom(d, "alloc", lambda: buddy.alloc(order))
        if frame is not None:
            frames.append(frame)
    d.add("frames", frames)
    for frame in frames[::2]:
        buddy.free(frame)
    _buddy_state(d, buddy)
    arena, fmfi = build_fragmented_arena(3000, 1200, 0.6, seed=4)
    d.add("arena-fmfi", fmfi)
    _buddy_state(d, arena)
    for free_ratio, fmfi in ((1.5, 0.3), (1.1, 0.9)):
        d.add("load", simulate_weight_load(
            8 << 30, free_ratio, fmfi, sim_model_bytes=16 << 20, seed=2
        ))
    return d.hexdigest()


def _switch_migrate() -> str:
    """Phase switches and partial migrations on a functional system."""
    org = ADAPTIVE_ARENA_ORG
    system = PimSystem.build(
        org, aim_config_for(org), functional=True, journal=True
    )
    injector = FaultInjector(seed=1).attach(system)
    d = _Digest()
    data = np.random.default_rng(8).integers(
        0, 1 << 16, size=(1040, 1024), dtype=np.uint16
    )
    first = system.pimalloc(MatrixConfig(rows=1040, cols=1024))
    first.store(data)
    second = system.pimalloc(MatrixConfig(rows=256, cols=2048))
    _system_state(d, system)
    system.allocator.switch_mapping(first)
    d.add("switched", (first.map_id, first.load(np.uint16).tobytes() == data.tobytes()))
    _system_state(d, system)
    d.add("migrated", system.allocator.migrate_pages(first, 5, page_count=1))
    d.add("mixed", system.space.area_page_map_ids(first.va))
    _system_state(d, system)
    d.add("migrated", system.allocator.migrate_pages(first, 5, page_start=1))
    d.add("intact", first.load(np.uint16).tobytes() == data.tobytes())
    injector.suppress_invalidations(2)
    second.free()
    _system_state(d, system)
    first.free()
    d.add("faults", injector.log)
    _system_state(d, system)
    return d.hexdigest()


CASES: Dict[str, Callable[[], str]] = {
    "moe-churn": _moe_churn,
    "mixed-mmap": _mixed_mmap,
    "mmap-oom": _mmap_oom,
    "fragment-compact": _fragment_compact,
    "from-allocated-load": _from_allocated_load,
    "switch-migrate": _switch_migrate,
}

GOLDEN: Dict[str, str] = {
    "fragment-compact": "8e146216f95893f82bf0b8afcb15e2c3b730dd5ad3548aac1b1c2ed815248635",
    "from-allocated-load": "9cb9a30aeea98b9d4c11da40366be77d332783a7770870a2f69383c522f8a28a",
    "mixed-mmap": "c5ee708fc29a0cd6c32113f4cbe9a6879d5041fd44dd72e9970849aee7675f83",
    "mmap-oom": "24583469fde4da83287a08e83b0d3802cd22af15e412c26dd06a633f8a4868d0",
    "moe-churn": "d049cea00e49ae483b5ce8b9e7eafe1a22b8d5ae31dcb240135fbd59d0b6b783",
    "switch-migrate": "76319af3d3f4a8f23cc9676f0c7247bee56a1e09f70f0662465de58218faad3d",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert CASES[case]() == GOLDEN[case]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


if __name__ == "__main__":  # pragma: no cover - digest regeneration aid
    for name in sorted(CASES):
        print(f'    "{name}": "{CASES[name]()}",')
