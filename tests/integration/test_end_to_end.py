"""End-to-end integration: the paper's headline claim, demonstrated.

One matrix, stored once through pimalloc (virtual addresses, PIM-optimized
physical placement), is consumed by

* the PIM functional executor reading raw bank contents, and
* the SoC's BLAS-style kernels reading the contiguous virtual view,

with *no re-layout* in between — and both agree with numpy.
"""

import numpy as np
import pytest

from repro.core.pimalloc import PimSystem
from repro.core.relayout import relayout_functional
from repro.core.selector import MatrixConfig
from repro.dram.config import TINY_ORG, DramOrganization
from repro.pim.chunk import enumerate_placements, verify_placement_invariants
from repro.pim.config import AIM_LPDDR5, aim_config_for
from repro.pim.functional import pim_gemv
from repro.soc.kernels import gemm_reference, soc_gemm, soc_gemv

MEDIUM_ORG = DramOrganization(
    n_channels=4, ranks_per_channel=2, banks_per_rank=16,
    rows_per_bank=512, row_bytes=2048, transfer_bytes=32,
)


class TestRelayoutFreeSharing:
    """The core FACIL demonstration (Fig. 5c vs 5a/5b)."""

    @pytest.mark.parametrize(
        "org,pim,rows,cols",
        [
            (TINY_ORG, None, 48, 700),
            (MEDIUM_ORG, AIM_LPDDR5, 96, 4096),
            (MEDIUM_ORG, AIM_LPDDR5, 24, 14336),  # partitioned rows
        ],
    )
    def test_same_bytes_serve_pim_gemv_and_soc_gemm(self, org, pim, rows, cols, rng):
        pim = pim if pim is not None else aim_config_for(org)
        system = PimSystem.build(org, pim)
        weights = rng.standard_normal((rows, cols)).astype(np.float16)
        x = rng.standard_normal(cols).astype(np.float16)
        activations = rng.standard_normal((cols, 3)).astype(np.float16)

        tensor = system.pimalloc(MatrixConfig(rows=rows, cols=cols))
        tensor.store(weights)

        # placement is PIM-legal
        verify_placement_invariants(enumerate_placements(tensor), tensor)

        # decode path: PIM GEMV on raw banks
        y_pim, _ = pim_gemv(tensor, x)
        np.testing.assert_allclose(
            y_pim, weights.astype(np.float32) @ x.astype(np.float32),
            rtol=2e-2, atol=1e-2,
        )

        # prefill path: SoC GEMM through virtual addresses, zero re-layout
        out = soc_gemm(tensor, activations)
        np.testing.assert_allclose(out, gemm_reference(weights, activations))

        # and the SoC's own GEMV agrees with the PIM result
        y_soc = soc_gemv(tensor, x)
        np.testing.assert_allclose(y_pim, y_soc, rtol=2e-2, atol=1e-2)


class TestBaselineEquivalence:
    def test_relayout_produces_identical_data(self, rng):
        """The hybrid baseline's re-layout is numerically a no-op — it
        exists purely to restore conventional DRAM placement; FACIL makes
        it unnecessary."""
        system = PimSystem.build(TINY_ORG, aim_config_for(TINY_ORG))
        tensor = system.pimalloc(MatrixConfig(rows=16, cols=256))
        weights = rng.standard_normal((16, 256)).astype(np.float16)
        tensor.store(weights)
        relaid = relayout_functional(tensor)
        direct = system.allocator.read_virtual(tensor.va, tensor.nbytes_padded)
        assert np.array_equal(relaid, direct)


class TestPhysicalLayoutsDiffer:
    def test_pim_and_conventional_place_bytes_differently(self, rng):
        """Same physical frames, different MapIDs: the bank images must
        differ — otherwise the mapping would be doing nothing."""
        system_a = PimSystem.build(TINY_ORG, aim_config_for(TINY_ORG))
        system_b = PimSystem.build(TINY_ORG, aim_config_for(TINY_ORG))
        data = rng.integers(0, 255, (16, 512)).astype(np.uint16)

        tensor = system_a.pimalloc(MatrixConfig(rows=16, cols=512))
        tensor.store(data)
        va_b = system_b.allocator.malloc(tensor.nbytes_padded, huge=True)
        system_b.allocator.write_virtual(va_b, data.reshape(-1).view(np.uint8))

        bank_a = system_a.memory.bank(0, 0, 0).copy()
        bank_b = system_b.memory.bank(0, 0, 0).copy()
        assert not np.array_equal(bank_a, bank_b)


class TestMultiTensorSystem:
    def test_mixed_mappings_coexist(self, rng):
        """Tensors with different MapIDs plus a conventional allocation
        share one memory system without interference."""
        system = PimSystem.build(MEDIUM_ORG, AIM_LPDDR5)
        shapes = [(16, 1024), (8, 4096), (4, 16384)]
        tensors = []
        for rows, cols in shapes:
            t = system.pimalloc(MatrixConfig(rows=rows, cols=cols))
            data = rng.standard_normal((rows, cols)).astype(np.float16)
            t.store(data)
            tensors.append((t, data))
        # distinct selections produce distinct MapIDs
        map_ids = {t.map_id for t, _ in tensors}
        assert len(map_ids) >= 2

        plain_va = system.allocator.malloc(64 * 1024, huge=True)
        plain = rng.integers(0, 255, 64 * 1024).astype(np.uint8)
        system.allocator.write_virtual(plain_va, plain)

        for t, data in tensors:
            assert np.array_equal(t.load(np.float16), data)
            x = rng.standard_normal(t.matrix.cols).astype(np.float16)
            y, _ = pim_gemv(t, x)
            np.testing.assert_allclose(
                y, data.astype(np.float32) @ x.astype(np.float32),
                rtol=2e-2, atol=1e-2,
            )
        assert np.array_equal(
            system.allocator.read_virtual(plain_va, len(plain)), plain
        )


class TestTlbTransparency:
    def test_accesses_hit_tlb_after_warmup(self, rng):
        """Programmer-transparency has no TLB cost: the MapID rides in
        the existing entries (paper §V-A)."""
        system = PimSystem.build(TINY_ORG, aim_config_for(TINY_ORG))
        tensor = system.pimalloc(MatrixConfig(rows=16, cols=256))
        tensor.store(rng.standard_normal((16, 256)).astype(np.float16))
        tlb = system.space.mmu.tlb
        hits_before = tlb.stats.hits
        tensor.load(np.float16)
        assert tlb.stats.hits > hits_before
