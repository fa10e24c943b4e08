"""Mapping verifier: GF(2) machinery, seeded-bug fixtures for every MV
rule, and the platform sweep (exhaustive version under ``-m analysis``)."""

import numpy as np
import pytest

from repro.analysis.mapverify import (
    chunk_max_map_id,
    gf2_rank,
    mapping_matrix,
    unsafe_mapping,
    verify_kv_blocks,
    verify_mapping,
    verify_pim_mapping,
    verify_platform,
    verify_selection,
)
from repro.core.mapping import conventional_mapping, pim_optimized_mapping
from repro.core.selector import MatrixConfig
from repro.dram.config import DramOrganization, lpddr5_organization
from repro.pim.config import AIM_LPDDR5, HBM_PIM
from repro.platforms.specs import ALL_PLATFORMS

ORG = lpddr5_organization(256, 64)
N_BITS = 21


def _rule_ids(findings):
    return sorted({f.rule_id for f in findings})


class TestGf2:
    def test_identity_full_rank(self):
        assert gf2_rank(np.eye(8, dtype=np.uint8)) == 8

    def test_duplicate_row_rank_deficient(self):
        m = np.eye(8, dtype=np.uint8)
        m[3] = m[2]
        assert gf2_rank(m) == 7

    def test_xor_dependency_detected(self):
        # row3 = row0 ^ row1 is invisible to real-valued rank heuristics
        m = np.eye(4, dtype=np.uint8)
        m[3] = m[0] ^ m[1]
        assert gf2_rank(m) == 3

    def test_mapping_matrix_is_permutation(self):
        mapping = conventional_mapping(ORG, N_BITS)
        matrix = mapping_matrix(mapping)
        assert matrix.shape == (N_BITS, N_BITS)
        assert (matrix.sum(axis=0) == 1).all()
        assert (matrix.sum(axis=1) == 1).all()
        assert gf2_rank(matrix) == N_BITS


@pytest.fixture(scope="module")
def pim_mapping():
    return pim_optimized_mapping(
        ORG, chunk_rows=1, chunk_cols=1024, dtype_bytes=2,
        map_id=1, n_bits=N_BITS,
    )


class TestCleanMappings:
    def test_conventional_clean(self):
        assert verify_mapping(conventional_mapping(ORG, N_BITS), ORG) == []

    def test_pim_clean(self, pim_mapping):
        assert verify_pim_mapping(pim_mapping, ORG, AIM_LPDDR5) == []


class TestSeededBugs:
    """Each fixture plants one defect the constructor would reject and
    asserts the verifier finds it with the right rule ID."""

    def test_duplicated_bit_mv001(self, pim_mapping):
        fields = dict(pim_mapping.fields)
        col = list(fields["col"])
        col[0] = col[1]  # PA bit feeds two outputs, another is dropped
        fields["col"] = tuple(col)
        findings = verify_mapping(unsafe_mapping("dup", N_BITS, fields))
        assert "MV001" in _rule_ids(findings)

    def test_out_of_range_bit_mv002(self, pim_mapping):
        fields = dict(pim_mapping.fields)
        col = list(fields["col"])
        col[0] = N_BITS + 5  # output driven by no in-page PA bit
        fields["col"] = tuple(col)
        findings = verify_mapping(unsafe_mapping("oob", N_BITS, fields))
        assert "MV002" in _rule_ids(findings)

    def test_wrong_field_widths_mv003(self, pim_mapping):
        fields = dict(pim_mapping.fields)
        # Move a column bit into the bank field: widths disagree with the
        # organization even though the permutation stays intact.
        fields["bank"] = fields["bank"] + (fields["col"][-1],)
        fields["col"] = fields["col"][:-1]
        findings = verify_mapping(unsafe_mapping("widths", N_BITS, fields), ORG)
        assert "MV003" in _rule_ids(findings)

    def test_pu_bit_inside_chunk_mv004(self, pim_mapping):
        fields = dict(pim_mapping.fields)
        bank = list(fields["bank"])
        col = list(fields["col"])
        bank[0], col[0] = col[0], bank[0]  # bank bit into the chunk span
        fields["bank"] = tuple(bank)
        fields["col"] = tuple(col)
        findings = verify_pim_mapping(
            unsafe_mapping("puin", N_BITS, fields), ORG, AIM_LPDDR5
        )
        assert "MV004" in _rule_ids(findings)

    def test_shuffled_chunk_mv005(self, pim_mapping):
        fields = dict(pim_mapping.fields)
        col = list(fields["col"])
        col[0], col[1] = col[1], col[0]  # chunk walk order broken
        fields["col"] = tuple(col)
        findings = verify_pim_mapping(
            unsafe_mapping("shuffled", N_BITS, fields), ORG, AIM_LPDDR5
        )
        assert "MV005" in _rule_ids(findings)

    def test_multirow_chunk_crossing_rows_mv006(self):
        # HBM-PIM-style chunk (8 rows x 128 cols) on an organization with
        # room: swap the chunk's row-select col bit (directly below the
        # PU bits) with a row bit above them — still a permutation, but
        # the chunk's rows now land in different DRAM rows.
        org = DramOrganization(
            n_channels=2, ranks_per_channel=1, banks_per_rank=8,
            rows_per_bank=1 << 14, row_bytes=2048, transfer_bytes=32,
        )
        pim = HBM_PIM
        mapping = pim_optimized_mapping(
            org, pim.chunk_rows, pim.chunk_cols, pim.dtype_bytes,
            map_id=0, n_bits=N_BITS,
        )
        assert verify_pim_mapping(mapping, org, pim) == []
        pu_low = min(
            mapping.positions("channel")
            + mapping.positions("rank")
            + mapping.positions("bank")
        )
        select_bit = pu_low - 1  # chunk's row-select column bit
        fields = {name: list(pos) for name, pos in mapping.fields.items()}
        row_hi = max(fields["row"])
        ci = fields["col"].index(select_bit)
        ri = fields["row"].index(row_hi)
        fields["col"][ci], fields["row"][ri] = row_hi, select_bit
        broken = unsafe_mapping(
            "xrow", N_BITS, {k: tuple(v) for k, v in fields.items()}
        )
        findings = verify_pim_mapping(broken, org, pim)
        assert "MV006" in _rule_ids(findings)

    def test_pte_budget_mv007(self):
        findings = verify_selection(
            MatrixConfig(rows=64, cols=4096), ORG, AIM_LPDDR5,
            pte_map_id_bits=0,  # a zero-bit PTE budget fits only MapID 0
        )
        assert "MV007" in _rule_ids(findings)


class TestPlatformSweep:
    def test_chunk_ceiling_below_theoretical(self):
        from repro.core.mapping import max_map_id

        ceiling = chunk_max_map_id(ORG, AIM_LPDDR5, N_BITS)
        assert 0 <= ceiling <= max_map_id(ORG, 2 << 20)

    def test_default_sweep_clean_on_first_platform(self):
        spec = ALL_PLATFORMS[0]
        conv = conventional_mapping(spec.dram.org, N_BITS)
        findings, checked = verify_platform(
            spec.name, spec.dram.org, spec.pim, conv
        )
        assert findings == []
        assert checked > 2

    @pytest.mark.analysis
    @pytest.mark.parametrize(
        "spec", ALL_PLATFORMS, ids=[s.name for s in ALL_PLATFORMS]
    )
    def test_exhaustive_sweep(self, spec):
        """Every platform x every chunk-admissible MapID x both PU
        orders x a wide matrix battery — slow, so ``-m analysis``."""
        org = spec.dram.org
        battery = [
            (rows, cols)
            for rows in (1, 8, 256, 4096)
            for cols in (64, 1024, 4096, 11008, 65536, 1 << 18)
        ]
        conv = conventional_mapping(org, N_BITS)
        findings, checked = verify_platform(
            spec.name, org, spec.pim, conv, matrices=battery
        )
        assert findings == []
        assert checked >= len(battery)


class TestKvBlockRules:
    """MV010/MV011: paged KV blocks must be whole, chunk-aligned runs."""

    CRB = AIM_LPDDR5.chunk_row_bytes  # 2048

    def test_aligned_blocks_clean(self, pim_mapping):
        findings = verify_kv_blocks(
            pim_mapping, ORG, AIM_LPDDR5, block_bytes=8 * self.CRB
        )
        assert findings == []

    def test_misaligned_block_size_mv010(self, pim_mapping):
        findings = verify_kv_blocks(
            pim_mapping, ORG, AIM_LPDDR5, block_bytes=3 * self.CRB // 2
        )
        assert _rule_ids(findings) == ["MV010"]

    def test_misaligned_base_offset_mv010(self, pim_mapping):
        findings = verify_kv_blocks(
            pim_mapping, ORG, AIM_LPDDR5,
            block_bytes=2 * self.CRB, base_offset=64,
        )
        assert _rule_ids(findings) == ["MV010"]

    def test_conventional_mapping_straddles_mv011(self):
        # the conventional map interleaves channels at transfer
        # granularity: a chunk-row window cannot stay on one PU
        conv = conventional_mapping(ORG, N_BITS)
        findings = verify_kv_blocks(
            conv, ORG, AIM_LPDDR5, block_bytes=2 * self.CRB
        )
        assert "MV011" in _rule_ids(findings)

    def test_platform_sweep_includes_kv_battery(self):
        from repro.analysis.mapverify import KV_BLOCK_BATTERY

        spec = ALL_PLATFORMS[0]
        conv = conventional_mapping(spec.dram.org, N_BITS)
        _, baseline = verify_platform(
            spec.name, spec.dram.org, spec.pim, conv, matrices=[(64, 1024)]
        )
        assert baseline > len(KV_BLOCK_BATTERY)


class TestSelectorVerification:
    def test_selection_verifies_clean(self):
        for rows, cols in ((1, 64), (4096, 4096), (4, 1 << 18)):
            findings = verify_selection(
                MatrixConfig(rows=rows, cols=cols), ORG, AIM_LPDDR5
            )
            assert findings == [], (rows, cols)

    def test_budget_headroom_documented(self):
        # The 4 spare PTE bits hold MapIDs 0..15; every platform's
        # theoretical maximum must fit (paper: 4 bits suffice for 2 MB
        # pages on all evaluated organizations).
        from repro.core.mapping import max_map_id
        from repro.os.page_table import MAP_ID_BITS

        for spec in ALL_PLATFORMS:
            assert max_map_id(spec.dram.org, 2 << 20) < (1 << MAP_ID_BITS)
