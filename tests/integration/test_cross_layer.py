"""Cross-layer behaviors that no single module test covers."""

import numpy as np

from repro.core.controller import MemoryController
from repro.core.pimalloc import PimSystem
from repro.core.selector import MatrixConfig
from repro.dram.config import TINY_ORG
from repro.dram.memory import PhysicalMemory
from repro.pim.config import aim_config_for


class TestPageBoundaryCrossing:
    """Writes spanning multiple huge pages must route each page through
    its own frame (and potentially its own MapID)."""

    def test_multi_page_tensor_roundtrip(self, rng):
        system = PimSystem.build(TINY_ORG, aim_config_for(TINY_ORG))
        # 3 MB of data -> two huge pages
        matrix = MatrixConfig(rows=1024, cols=1500)
        tensor = system.pimalloc(matrix)
        area = system.space.areas[tensor.va]
        assert area.n_pages >= 2
        data = rng.integers(0, 1 << 16, (1024, 1500)).astype(np.uint16)
        tensor.store(data)
        assert np.array_equal(tensor.load(np.uint16), data)

    def test_pages_may_be_physically_discontiguous(self, rng):
        system = PimSystem.build(TINY_ORG, aim_config_for(TINY_ORG))
        # fragment the frame space so consecutive pages land apart
        spacer = system.allocator.malloc(2 << 20, huge=True)
        a = system.pimalloc(MatrixConfig(rows=512, cols=1024))
        system.space.munmap(spacer)
        b = system.pimalloc(MatrixConfig(rows=1024, cols=1500))  # 4 MB -> 2 pages
        frames_b = system.space.areas[b.va].frames
        assert len(frames_b) == 2
        # the freed spacer frame sits below tensor a's frame: the two
        # pages of b are not physically adjacent
        assert frames_b[1] - frames_b[0] != 512
        b_data = rng.standard_normal((1024, 1500)).astype(np.float16)
        b.store(b_data)
        assert np.array_equal(b.load(np.float16), b_data)


class TestControllerUnalignedAccess:
    def test_odd_offsets_and_lengths(self, rng):
        memory = PhysicalMemory(TINY_ORG)
        controller = MemoryController(TINY_ORG, memory=memory)
        payload = bytes(rng.integers(0, 256, 999).astype(np.uint8))
        controller.write(12345, payload)
        assert bytes(controller.read(12345, 999)) == payload

    def test_interleaved_writers_do_not_clobber(self, rng):
        memory = PhysicalMemory(TINY_ORG)
        controller = MemoryController(TINY_ORG, memory=memory)
        a = bytes(rng.integers(0, 256, 100).astype(np.uint8))
        b = bytes(rng.integers(0, 256, 100).astype(np.uint8))
        controller.write(0, a)
        controller.write(100, b)
        assert bytes(controller.read(0, 100)) == a
        assert bytes(controller.read(100, 100)) == b


class TestMmuAccounting:
    def test_tensor_access_counts_walks_once_per_page(self, rng):
        system = PimSystem.build(TINY_ORG, aim_config_for(TINY_ORG))
        tensor = system.pimalloc(MatrixConfig(rows=64, cols=512))
        tensor.store(rng.standard_normal((64, 512)).astype(np.float16))
        walks_before = system.space.page_table.walks
        tensor.load(np.float16)
        walks = system.space.page_table.walks - walks_before
        # one page -> at most one walk (TLB covers the rest)
        assert walks <= system.space.areas[tensor.va].n_pages


class TestAllocatorReuse:
    def test_free_then_realloc_reuses_frames(self, rng):
        system = PimSystem.build(TINY_ORG, aim_config_for(TINY_ORG))
        first = system.pimalloc(MatrixConfig(rows=256, cols=1024))
        frames_first = list(system.space.areas[first.va].frames)
        first.free()
        second = system.pimalloc(MatrixConfig(rows=256, cols=1024))
        frames_second = list(system.space.areas[second.va].frames)
        assert frames_first == frames_second  # buddy min-frame policy
        data = rng.standard_normal((256, 1024)).astype(np.float16)
        second.store(data)
        assert np.array_equal(second.load(np.float16), data)

    def test_stale_data_not_visible_through_new_mapping(self, rng):
        """After free+realloc with a different shape/MapID, reads return
        the new tensor's data, not ghosts of the old placement."""
        system = PimSystem.build(TINY_ORG, aim_config_for(TINY_ORG))
        old = system.pimalloc(MatrixConfig(rows=64, cols=2048))
        old.store(np.full((64, 2048), 7.0, dtype=np.float16))
        old.free()
        new = system.pimalloc(MatrixConfig(rows=512, cols=200))
        new.store(np.zeros((512, 200), dtype=np.float16))
        assert np.all(new.load(np.float16) == 0)
