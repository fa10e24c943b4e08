"""Property-based integration tests (hypothesis) over the whole stack."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.controller import MemoryController
from repro.core.mapping import pim_optimized_mapping
from repro.core.pimalloc import PimSystem
from repro.core.selector import MatrixConfig
from repro.dram.config import TINY_ORG
from repro.dram.memory import PhysicalMemory
from repro.pim.config import aim_config_for
from repro.pim.functional import pim_gemv

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _fresh_system():
    return PimSystem.build(TINY_ORG, aim_config_for(TINY_ORG))


class TestStoreLoadProperty:
    @given(
        rows=st.integers(min_value=1, max_value=64),
        cols=st.integers(min_value=16, max_value=1024),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**_SETTINGS)
    def test_roundtrip_any_shape(self, rows, cols, seed):
        system = _fresh_system()
        tensor = system.pimalloc(MatrixConfig(rows=rows, cols=cols))
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 1 << 16, (rows, cols)).astype(np.uint16)
        tensor.store(data)
        assert np.array_equal(tensor.load(np.uint16), data)


class TestGemvProperty:
    @given(
        rows=st.integers(min_value=1, max_value=32),
        cols=st.integers(min_value=16, max_value=512),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**_SETTINGS)
    def test_pim_gemv_matches_numpy(self, rows, cols, seed):
        system = _fresh_system()
        tensor = system.pimalloc(MatrixConfig(rows=rows, cols=cols))
        rng = np.random.default_rng(seed)
        weights = (rng.standard_normal((rows, cols)) * 0.25).astype(np.float16)
        x = (rng.standard_normal(cols) * 0.25).astype(np.float16)
        tensor.store(weights)
        y, _ = pim_gemv(tensor, x)
        reference = weights.astype(np.float32) @ x.astype(np.float32)
        np.testing.assert_allclose(y, reference, rtol=2e-2, atol=1e-2)


class TestControllerPermutationProperty:
    @given(
        map_seed=st.integers(min_value=0, max_value=5),
        payload=st.binary(min_size=1, max_size=4096),
        offset=st.integers(min_value=0, max_value=1 << 16),
    )
    @settings(**_SETTINGS)
    def test_any_mapping_preserves_bytes(self, map_seed, payload, offset):
        """Whatever MapID routes the bytes, write-then-read through the
        same MapID is the identity."""
        memory = PhysicalMemory(TINY_ORG)
        controller = MemoryController(TINY_ORG, memory=memory)
        pim = aim_config_for(TINY_ORG)
        map_id = controller.table.register(
            pim_optimized_mapping(
                TINY_ORG, pim.chunk_rows, pim.chunk_cols, pim.dtype_bytes,
                map_seed % 3, 21,
            )
        )
        controller.write(offset, payload, map_id)
        assert bytes(controller.read(offset, len(payload), map_id)) == payload

    @given(
        payload=st.binary(min_size=32, max_size=1024),
    )
    @settings(**_SETTINGS)
    def test_cross_mapping_read_is_permutation(self, payload):
        """Mappings permute bytes *within a huge page*: reading the whole
        page through the wrong MapID yields the same byte multiset."""
        memory = PhysicalMemory(TINY_ORG)
        controller = MemoryController(TINY_ORG, memory=memory)
        pim = aim_config_for(TINY_ORG)
        map_id = controller.table.register(
            pim_optimized_mapping(TINY_ORG, 1, pim.chunk_cols, 2, 1, 21)
        )
        controller.write(0, payload, map_id)
        page = controller.read(0, 2 << 20, 0)
        expected = np.zeros(2 << 20, dtype=np.uint8)
        expected[: len(payload)] = np.frombuffer(payload, dtype=np.uint8)
        assert np.array_equal(
            np.bincount(page, minlength=256),
            np.bincount(expected, minlength=256),
        )
