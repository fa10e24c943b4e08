"""Golden data-path oracle: pinned digests of the functional byte store.

Each case drives ``MemoryController.write``/``read`` (the last one a
journaled, ECC-protected ``PimSystem``) through one scenario and hashes
everything the data path can change: the bytes read back, every
materialised bank array and ECC shadow array, the per-bank correction
and detection counts, and the faults of every ``UncorrectableEccError``.

Scenarios run on ``TINY_ORG`` (8 MiB) and ``ADAPTIVE_ARENA_ORG``
(16 MiB) through the conventional mapping and two PIM MapIDs, one per
PU-bit order.  They cover an aligned page, a 5-byte head offset, an
unaligned tail, 3 bytes inside one word, zero bytes, and a range that
crosses word, transfer, page and move-chunk boundaries.  With ECC on,
the fault cases add single flips inside and just outside the ranges
read or partially rewritten, stuck-at cells in words a later unaligned
write covers partly, and double flips.

The digests were captured at commit
10c96b02b003b5e37c3f4b6c21d66fe2a109805b, where the controller still
translated, bank-split and ECC-checked every byte on its own.  A
mismatch names the case.  Print fresh digests with
``python -m tests.core.test_datapath_golden`` only when a change is
*meant* to move stored bytes.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

import numpy as np
import pytest

from repro.adaptive.arena import ADAPTIVE_ARENA_ORG
from repro.core.controller import MemoryController
from repro.core.mapping import AddressMapping, Field, pim_optimized_mapping
from repro.core.pimalloc import PimSystem
from repro.core.selector import MatrixConfig
from repro.dram.config import TINY_ORG, DramOrganization
from repro.dram.memory import PhysicalMemory
from repro.pim.config import aim_config_for
from repro.reliability.ecc import EccEngine, UncorrectableEccError
from repro.reliability.faults import FaultInjector

PAGE = 2 << 20
MIB = 1 << 20
ORGS: Dict[str, DramOrganization] = {
    "tiny": TINY_ORG,
    "arena": ADAPTIVE_ARENA_ORG,
}
#: MapID and LSB-to-MSB PU-bit order of each PIM mapping under test
PIM_MAPPINGS = {
    "pim2": (2, (Field.BANK, Field.RANK, Field.CHANNEL)),
    "pim4": (4, (Field.CHANNEL, Field.RANK, Field.BANK)),
}
MAPPINGS = ("conv",) + tuple(PIM_MAPPINGS)


def _mapping(org: DramOrganization, name: str) -> Optional[AddressMapping]:
    if name == "conv":
        return None
    map_id, pu_order = PIM_MAPPINGS[name]
    return pim_optimized_mapping(
        org, 1, org.row_bytes // 2, 2, map_id, 21, pu_order=pu_order
    )


def _controller(org: DramOrganization, mapping: str, ecc: bool):
    controller = MemoryController(
        org, PAGE, memory=PhysicalMemory(org), ecc=EccEngine() if ecc else None
    )
    pim = _mapping(org, mapping)
    map_id = 0 if pim is None else controller.table.register(pim)
    return controller, map_id


def _state_digest(
    memory: PhysicalMemory, ecc: Optional[EccEngine], outputs: List[bytes]
) -> str:
    """sha256 over the outputs, then every bank array and ECC shadow
    array in bank-key order, then the per-bank ECC counters."""
    h = hashlib.sha256()
    for blob in outputs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    for key in memory.touched_banks():
        h.update(repr(key).encode())
        h.update(memory.bank(*key).tobytes())
    if ecc is not None:
        for key in sorted(ecc._shadow):
            h.update(repr(key).encode())
            h.update(ecc._shadow[key].tobytes())
        h.update(repr(sorted(ecc.corrected_by_bank.items())).encode())
        h.update(repr(sorted(ecc.detected_by_bank.items())).encode())
    return h.hexdigest()


def _crossing_range(org: DramOrganization):
    """A range that crosses word, transfer, page and move-chunk
    boundaries (the move chunk is 4 MiB from the call's first byte)."""
    if org.capacity_bytes >= 16 * MIB:
        return 3 * MIB + 13, 5 * MIB + 7
    return 1 * MIB + 13, 5 * MIB + 7


def _moves(org: DramOrganization, mapping: str, ecc: bool) -> str:
    controller, map_id = _controller(org, mapping, ecc)
    rng = np.random.default_rng(7)
    outputs: List[bytes] = []

    def put(pa: int, nbytes: int) -> None:
        data = rng.integers(0, 256, nbytes, dtype=np.uint8)
        controller.write(pa, data, map_id)

    def get(pa: int, nbytes: int) -> None:
        outputs.append(controller.read(pa, nbytes, map_id).tobytes())

    put(PAGE, PAGE)  # an aligned page
    get(PAGE, PAGE)
    put(40960 + 5, 3000)  # a 5-byte head offset
    get(40960, 3100)
    get(40960 + 5, 3000)
    put(81920, 1013)  # an unaligned tail
    get(81920, 1013)
    get(81900, 1100)
    put(PAGE + 4096 + 2, 3)  # 3 bytes inside one word
    get(PAGE + 4096, 8)
    get(PAGE + 4096 + 2, 3)
    put(PAGE + 8, 0)  # zero bytes
    get(PAGE + 8, 0)
    lo, nbytes = _crossing_range(org)
    put(lo, nbytes)
    get(lo, nbytes)
    get(lo - 100, nbytes + 200)
    return _state_digest(controller.memory, controller.ecc, outputs)


def _faults(org: DramOrganization, mapping: str) -> str:
    controller, map_id = _controller(org, mapping, ecc=True)
    memory = controller.memory
    injector = FaultInjector(seed=3)
    memory.fault_hook = injector
    rng = np.random.default_rng(11)
    outputs: List[bytes] = []
    base = PAGE + 8192
    controller.write(base, rng.integers(0, 256, 65536, dtype=np.uint8), map_id)

    def locate(offset: int):
        coord = controller.translate(base + offset, map_id)
        key = (coord.channel, coord.rank, coord.bank)
        byte = coord.row * org.row_bytes + coord.col * org.transfer_bytes
        return key, byte + coord.offset

    def flip(offset: int, bit: int) -> None:
        key, byte = locate(offset)
        memory.bank(*key).reshape(-1)[byte] ^= np.uint8(1 << bit)

    def get(offset: int, nbytes: int) -> None:
        try:
            outputs.append(controller.read(base + offset, nbytes, map_id).tobytes())
        except UncorrectableEccError as exc:
            outputs.append(repr(exc.faults).encode())

    def put(offset: int, nbytes: int) -> None:
        data = rng.integers(0, 256, nbytes, dtype=np.uint8)
        controller.write(base + offset, data, map_id)

    # single flips: the read covers one word; its neighbours stay pending
    for offset, bit in ((100, 3), (4097, 0), (40000, 7), (2047, 5), (2056, 1)):
        flip(offset, bit)
    get(2048, 8)
    get(0, 65536)
    # a partial write re-encodes only the words it overlaps: the flip in
    # its own first word is laundered, the neighbours' flips are not
    for offset, bit in ((1001, 2), (995, 4), (1020, 6), (1026, 1), (1050, 0)):
        flip(offset, bit)
    put(1003, 10)
    put(1024 + 17, 5)
    get(960, 128)
    # stuck-at cells in words a later unaligned write covers partly
    view = SimpleNamespace(memory=memory)
    for offset, bit in ((2001, 6), (2005, 1), (3013, 4)):
        key, byte = locate(offset)
        current = (int(memory.bank(*key).reshape(-1)[byte]) >> bit) & 1
        injector.add_stuck_bit(view, key, byte, bit, 1 - current)
    put(2003, 9)
    put(3000 + 14, 20)
    get(1990, 40)
    get(1990, 40)
    get(2990, 64)
    # double flips: detected, after every single flip of the chunk is
    # corrected; a read ending just before the bad word does not see it
    flip(30000, 1)
    flip(30003, 6)
    for offset in (29001, 29500, 31000, 32003):
        flip(offset, 2)
    get(29990, 10)
    get(29000, 4000)
    get(30003, 2)
    flip(50000 + 8, 0)
    flip(50000 + 9, 0)
    get(49000, 16000)
    return _state_digest(memory, controller.ecc, outputs)


def _pim_round() -> str:
    """A pim-datapath-style round: pimalloc, store, load, migrate the
    first huge page to another MapID, load."""
    org = ADAPTIVE_ARENA_ORG
    system = PimSystem.build(
        org, aim_config_for(org), functional=True, ecc=True, journal=True
    )
    data = np.random.default_rng(5).integers(
        0, 1 << 16, size=(1040, 1024), dtype=np.uint16
    )
    tensor = system.pimalloc(MatrixConfig(rows=1040, cols=1024, dtype_bytes=2))
    tensor.store(data)
    first = tensor.load(np.uint16)
    migrated = system.allocator.migrate_pages(
        tensor, 5, page_start=0, page_count=1
    )
    second = tensor.load(np.uint16)
    outputs = [first.tobytes(), second.tobytes(), repr(migrated).encode()]
    return _state_digest(system.memory, system.controller.ecc, outputs)


CASES: Dict[str, Callable[[], str]] = {}
for _org in ORGS:
    for _mapping_name in MAPPINGS:
        for _ecc in (False, True):
            CASES[f"moves-{_org}-{_mapping_name}-{'ecc' if _ecc else 'raw'}"] = (
                lambda o=_org, m=_mapping_name, e=_ecc: _moves(ORGS[o], m, e)
            )
        CASES[f"faults-{_org}-{_mapping_name}"] = (
            lambda o=_org, m=_mapping_name: _faults(ORGS[o], m)
        )
CASES["pim-round"] = _pim_round

GOLDEN: Dict[str, str] = {
    "faults-arena-conv": "1ed1dd9491e2b34e939eec0a63ef988c1b29d0cddbc777d1893fd1b6386a7cd8",
    "faults-arena-pim2": "84ecb68bdbfe6a274146c0ae454992888479cfbf01ba5ba72cf0a421adf1b9fc",
    "faults-arena-pim4": "17f8fce671af96f4c141db6be70bbdca8d1335ca87c6573d81667ade1c3371ca",
    "faults-tiny-conv": "35d55c72fcc0ae75d24219fb9e355e774ab4d53736c684f9a450bff479d0a57b",
    "faults-tiny-pim2": "12a6aa98015428593fab587660256429027f83ad6ee73453544c736b86c8e16b",
    "faults-tiny-pim4": "43c2d2c44ee26a2e4fea07be45e0faef7cb8b75f3af137f4394895f0d5500ec9",
    "moves-arena-conv-ecc": "5259b0a4d4977203032f0b1582c0bff1140a6f60a8c93589a079cbcfaccb2c58",
    "moves-arena-conv-raw": "16daf13fdbdf2ed20abc90cb00ab20795cb846837182c9c1b72b9f776c03ab88",
    "moves-arena-pim2-ecc": "5b66d6ebfc17dfb4a26bed72ec348fbb9d0bcd94ea6834ea92c56d00fe2294a1",
    "moves-arena-pim2-raw": "7caf63057755fb89aac071198ced63205142e31691b96147163464b7ba21fa85",
    "moves-arena-pim4-ecc": "5e5a1d50d3c70cecda23dd8fadf444a850064cf1df8e709393cbf8db0d88ef72",
    "moves-arena-pim4-raw": "e0d6460d0e3ffc9d19d926999f989af66f707670e7ed2f532c44c9a42a047fb8",
    "moves-tiny-conv-ecc": "bb12d0d3db850f690deec1e381ed921328136c6074c001cf7b9d89f971d2b17a",
    "moves-tiny-conv-raw": "28173a078785a4c66e831fd5ec27a02ac64552aadc3289b37cf35a87485471b3",
    "moves-tiny-pim2-ecc": "dbb0caa134ce069114e9a0d61d88aa94452f8068c5f3bed9f88f7c052e7cb226",
    "moves-tiny-pim2-raw": "cbf4a4d7c0d818e3154f9ffe6db1cf07eabb54f56b320ae776d0d3a421d954c5",
    "moves-tiny-pim4-ecc": "1060227ccc7788cb7f8e3e56a049ad330ea9d4dd44d65a00bdec8922b67b087b",
    "moves-tiny-pim4-raw": "a3ba0603f4d78c95c594ca2d5d92fcda7924003406ccd082947530ad82aacfe7",
    "pim-round": "be1e39691040a92446577b42a36a469ddd24b376acacbab34fbb0844974d9232",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert CASES[case]() == GOLDEN[case]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


if __name__ == "__main__":  # pragma: no cover - digest regeneration aid
    for name in sorted(CASES):
        print(f'    "{name}": "{CASES[name]()}",')
