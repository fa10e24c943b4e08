"""Tests for chunk placement enumeration and the §II-C invariants."""

import pytest

from repro.core.pimalloc import PimSystem
from repro.core.selector import MatrixConfig
from repro.dram.config import TINY_ORG
from repro.pim.chunk import enumerate_placements, verify_placement_invariants
from repro.pim.config import aim_config_for


@pytest.fixture
def system():
    return PimSystem.build(TINY_ORG, aim_config_for(TINY_ORG))


class TestEnumeration:
    def test_segment_count(self, system):
        # 16 rows x padded 512 cols / 128-elem chunk rows = 64 segments
        tensor = system.pimalloc(MatrixConfig(rows=16, cols=300))
        segments = enumerate_placements(tensor)
        assert len(segments) == 16 * (512 // 128)

    def test_segments_tile_the_matrix(self, system):
        tensor = system.pimalloc(MatrixConfig(rows=8, cols=256))
        segments = enumerate_placements(tensor)
        covered = {(seg.m, seg.k_start) for seg in segments}
        expected = {(m, k) for m in range(8) for k in range(0, 256, 128)}
        assert covered == expected

    def test_each_segment_is_one_chunk_row(self, system):
        tensor = system.pimalloc(MatrixConfig(rows=4, cols=128))
        for seg in enumerate_placements(tensor):
            assert seg.n_transfers == 128 * 2 // TINY_ORG.transfer_bytes

    def test_segment_ids(self, system):
        tensor = system.pimalloc(MatrixConfig(rows=4, cols=256))
        for seg in enumerate_placements(tensor):
            assert seg.segment_id(128) == seg.k_start // 128


class TestInvariants:
    def test_pimalloc_placement_satisfies_invariants(self, system):
        for rows, cols in [(4, 128), (16, 300), (32, 1000), (100, 777)]:
            tensor = system.pimalloc(MatrixConfig(rows=rows, cols=cols))
            verify_placement_invariants(enumerate_placements(tensor), tensor)
            tensor.free()

    def test_matrix_row_stays_in_one_bank(self, system):
        tensor = system.pimalloc(MatrixConfig(rows=8, cols=512))
        by_row = {}
        for seg in enumerate_placements(tensor):
            by_row.setdefault(seg.m, set()).add(seg.pu)
        assert all(len(pus) == 1 for pus in by_row.values())

    def test_conventional_layout_fails_invariants(self, system):
        """A matrix stored with MapID 0 (conventional interleaving) must
        violate the chunk-contiguity constraint — this is exactly why
        PIM needs FACIL's flexible mapping."""
        tensor = system.pimalloc(MatrixConfig(rows=8, cols=512))
        # forge a tensor whose placement is read through the conventional map
        object.__setattr__(tensor.mapping, "name", "forged")
        forged = tensor
        forged_map = forged.allocator.controller.table[0]
        # swap the registered mapping for the conventional one
        forged.allocator.controller.table._entries[forged.map_id] = forged_map
        with pytest.raises(AssertionError, match="contiguity|column-contiguous"):
            enumerate_placements(forged)
