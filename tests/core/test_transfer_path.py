"""The controller's transfer-granular data path: range checks and the
transfer-offset precondition it moves bytes under, proved statically by
verifier rule MV012 and checked again on every read and write."""

from typing import Optional

import numpy as np
import pytest

from repro.analysis.mapverify import verify_mapping, verify_pim_mapping
from repro.core.controller import MemoryController
from repro.core.mapping import (
    AddressMapping,
    Field,
    conventional_mapping,
    pim_optimized_mapping,
)
from repro.dram.config import TINY_ORG
from repro.dram.memory import PhysicalMemory
from repro.pim.config import aim_config_for
from repro.reliability.ecc import EccEngine
from repro.reliability.integrity import MappingIntegrityError, ParityMappingTable

PAGE = 2 << 20
CAPACITY = TINY_ORG.capacity_bytes


def _controller(ecc: bool = False, table=None) -> MemoryController:
    return MemoryController(
        TINY_ORG,
        PAGE,
        table=table,
        memory=PhysicalMemory(TINY_ORG),
        ecc=EccEngine() if ecc else None,
    )


def _offset_swapped(base: Optional[AddressMapping] = None) -> AddressMapping:
    """*base* (the conventional mapping by default) with PA bit 0 feeding
    the channel and a channel PA bit feeding offset bit 0: a permutation
    of the right widths that breaks MV012."""
    if base is None:
        base = conventional_mapping(TINY_ORG, 21)
    fields = {name: list(pos) for name, pos in base.fields.items()}
    fields[Field.OFFSET][0], fields[Field.CHANNEL][0] = (
        fields[Field.CHANNEL][0], fields[Field.OFFSET][0],
    )
    return AddressMapping(
        "offswap", 21, {name: tuple(pos) for name, pos in fields.items()}
    )


class TestOutOfRange:
    @pytest.mark.parametrize("pa", [-8, -1, CAPACITY - 4, CAPACITY])
    def test_write_rejected_before_any_byte_moves(self, pa):
        controller = _controller(ecc=True)
        with pytest.raises(ValueError, match=r"physical range \[.*\) is outside"):
            controller.write(pa, np.full(8, 0xAB, dtype=np.uint8))
        assert list(controller.memory.touched_banks()) == []
        assert controller.ecc.total_corrected == 0

    def test_negative_write_leaves_the_top_of_dram_alone(self):
        controller = _controller()
        controller.write(CAPACITY - 8, np.arange(8, dtype=np.uint8))
        with pytest.raises(ValueError, match="outside"):
            controller.write(-8, np.full(8, 0xFF, dtype=np.uint8))
        assert controller.read(CAPACITY - 8, 8).tolist() == list(range(8))

    @pytest.mark.parametrize("pa, nbytes", [(-8, 8), (CAPACITY - 4, 8), (0, CAPACITY + 1)])
    def test_read_rejected_before_ecc_runs(self, pa, nbytes):
        controller = _controller(ecc=True)
        controller.write(CAPACITY - 8, np.arange(8, dtype=np.uint8))
        coord = controller.translate(CAPACITY - 8)
        flat = controller.memory.bank(coord.channel, coord.rank, coord.bank).reshape(-1)
        byte = (
            coord.row * TINY_ORG.row_bytes
            + coord.col * TINY_ORG.transfer_bytes
            + coord.offset
        )
        flat[byte] ^= np.uint8(4)  # a pending single-bit flip in the last word
        with pytest.raises(ValueError, match="outside"):
            controller.read(pa, nbytes)
        assert controller.ecc.total_corrected == 0
        assert flat[byte] == 4  # not scrubbed
        assert controller.read(CAPACITY - 8, 8).tolist() == list(range(8))
        assert controller.ecc.total_corrected == 1

    def test_last_byte_of_dram_is_in_range(self):
        controller = _controller(ecc=True)
        controller.write(CAPACITY - 1, np.array([0x5A], dtype=np.uint8))
        assert controller.read(CAPACITY - 1, 1).tolist() == [0x5A]
        assert controller.read(CAPACITY, 0).size == 0

    def test_translate_rejects_negative_pa(self):
        with pytest.raises(ValueError, match="negative"):
            _controller().translate(-8)


class TestVerifierRule:
    def test_offset_bit_swapped_is_caught_only_by_mv012(self):
        pim = aim_config_for(TINY_ORG)
        mapping = pim_optimized_mapping(TINY_ORG, 1, TINY_ORG.row_bytes // 2, 2, 3, 21)
        assert verify_pim_mapping(mapping, TINY_ORG, pim) == []
        broken = _offset_swapped(mapping)
        assert [f.rule_id for f in verify_mapping(broken, TINY_ORG)] == ["MV012"]
        assert [f.rule_id for f in verify_pim_mapping(broken, TINY_ORG, pim)] == [
            "MV012"
        ]


class TestTransferOffsetPrecondition:
    def test_read_and_write_refuse_an_offset_swapped_mapping(self):
        controller = _controller(ecc=True)
        map_id = controller.table.register(_offset_swapped())
        with pytest.raises(ValueError, match="offset field"):
            controller.write(PAGE, np.ones(64, dtype=np.uint8), map_id)
        with pytest.raises(ValueError, match="offset field"):
            controller.read(PAGE, 64, map_id)
        assert list(controller.memory.touched_banks()) == []

    def test_translation_still_accepts_any_permutation(self):
        controller = _controller()
        map_id = controller.table.register(_offset_swapped())
        coord = controller.translate(PAGE + 1, map_id)
        assert (coord.channel, coord.offset) == (1, 0)
        fields = controller.translate_array(np.array([PAGE + 1]), map_id)
        assert int(fields[Field.CHANNEL][0]) == 1

    def test_parity_check_runs_before_the_offset_check(self):
        table = ParityMappingTable(conventional_mapping(TINY_ORG, 21))
        controller = _controller(table=table)
        map_id = table.register(_offset_swapped())
        table._entries[map_id] = conventional_mapping(TINY_ORG, 21, name="upset")
        with pytest.raises(MappingIntegrityError):
            controller.read(PAGE, 64, map_id)
