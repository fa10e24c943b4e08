"""Static mapping verifier (pass 1 of ``repro-facil analyze``).

Every FACIL mapping claims to be a bit *permutation* with PIM placement
invariants (paper §IV-B).  This pass proves those claims without running
a single simulated access:

* the mapping is lifted into a GF(2) bit matrix (output DA bit x input PA
  bit) and bijectivity is established by rank over GF(2) — a dropped or
  duplicated bit is a rank deficiency, exactly how silent locality-loss
  bugs in address mappings manifest;
* field widths are checked against the :class:`DramOrganization`;
* the transfer-offset field must be the PA LSBs, in order, which is
  what lets the controller translate once per transfer and move whole
  transfers;
* PIM placements are checked structurally: one chunk row must be
  contiguous inside one bank, a multi-row chunk must keep its rows in one
  DRAM row, and the PU-changing bits must sit above the whole chunk;
* every selector-reachable MapID must fit the spare PTE bits
  :mod:`repro.os.page_table` encodes it in.

Rule IDs are ``MV001``-``MV012``; see ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.findings import (
    LEVEL_ERROR,
    Finding,
    register_rules,
)
from repro.core.bitfield import ilog2
from repro.core.mapping import AddressMapping, max_map_id
from repro.core.selector import MatrixConfig, pu_order_for, select_mapping
from repro.core.mapping import pim_optimized_mapping
from repro.dram.address import FIELDS, Field
from repro.dram.config import DramOrganization
from repro.os.page_table import MAP_ID_BITS
from repro.pim.config import PimConfig

__all__ = [
    "MAPVERIFY_RULES",
    "mapping_matrix",
    "gf2_rank",
    "unsafe_mapping",
    "chunk_max_map_id",
    "verify_mapping",
    "verify_pim_mapping",
    "verify_selection",
    "verify_kv_blocks",
    "verify_platform",
    "DEFAULT_MATRIX_BATTERY",
    "KV_BLOCK_BATTERY",
]

MAPVERIFY_RULES: Dict[str, str] = {
    "MV001": "mapping is not bijective over GF(2): a PA bit is dropped or "
             "duplicated",
    "MV002": "mapping is not a pure bit permutation: an output bit mixes "
             "several PA bits (not realizable as a mux array)",
    "MV003": "mapping field widths disagree with the DRAM organization",
    "MV004": "a PIM chunk row straddles processing units: a PU-changing "
             "bit lies inside the chunk span",
    "MV005": "a PIM chunk row is not contiguous inside its bank",
    "MV006": "a multi-row chunk crosses DRAM rows: its row-select bits "
             "are not column bits directly below the PU bits",
    "MV007": "selected MapID does not fit the spare PTE bits",
    "MV008": "selector chose a mapping the builder rejects (selector/"
             "builder inconsistency)",
    "MV009": "selected MapID exceeds the theoretical maximum for the "
             "organization",
    "MV010": "a KV-cache block is not aligned to the PIM chunk row: its "
             "base or size is not a whole number of chunk rows",
    "MV011": "a chunk-row window of a KV-cache block straddles a DRAM "
             "row or processing unit (decoded placement is not one "
             "contiguous run in one bank row)",
    "MV012": "the transfer-offset field is not PA bits [0, offset_bits) "
             "LSB first",
}
register_rules(MAPVERIFY_RULES)

#: KV block shapes (block_tokens, kv_dim) the platform sweep exercises —
#: a small chat-model slab and a large one (see repro.kvcache.KvSpec).
KV_BLOCK_BATTERY: Tuple[Tuple[int, int], ...] = (
    (16, 1024),
    (32, 4096),
)

#: Matrix shapes the selector is exercised with per platform: the padded
#: column counts cover sub-chunk rows, one-chunk rows, typical LLM layer
#: widths, and rows so large they must be partitioned (Fig. 10).
DEFAULT_MATRIX_BATTERY: Tuple[Tuple[int, int], ...] = (
    (1, 64),
    (64, 512),
    (256, 1024),
    (4096, 4096),
    (4096, 11008),
    (1024, 16384),
    (8, 65536),
    (4, 262144),
)


def unsafe_mapping(
    name: str, n_bits: int, fields: Dict[str, Tuple[int, ...]]
) -> AddressMapping:
    """Construct an :class:`AddressMapping` bypassing its permutation
    validation — for seeded-bug fixtures only.  The verifier must catch
    what the constructor would have rejected."""
    mapping = AddressMapping.__new__(AddressMapping)
    object.__setattr__(mapping, "name", name)
    object.__setattr__(mapping, "n_bits", n_bits)
    object.__setattr__(mapping, "fields", dict(fields))
    return mapping


# ---------------------------------------------------------------------------
# GF(2) machinery
# ---------------------------------------------------------------------------


def mapping_matrix(mapping: AddressMapping) -> np.ndarray:
    """Lift *mapping* into its GF(2) bit matrix.

    Row *i* is output (DA) bit *i* — fields concatenated in
    :data:`FIELDS` order, LSB first within each field — and column *j* is
    PA bit *j*.  A well-formed mapping yields a permutation matrix; this
    builder faithfully transcribes whatever the mapping declares, so
    malformed mappings yield rank-deficient or multi-entry rows.
    """
    rows: List[np.ndarray] = []
    for fname in FIELDS:
        for pa_pos in mapping.fields.get(fname, ()):
            row = np.zeros(mapping.n_bits, dtype=np.uint8)
            if 0 <= pa_pos < mapping.n_bits:
                row[pa_pos] = 1
            rows.append(row)
    if not rows:
        return np.zeros((0, mapping.n_bits), dtype=np.uint8)
    return np.vstack(rows)


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank of a 0/1 matrix over GF(2) (Gaussian elimination with XOR)."""
    m = (np.array(matrix, dtype=np.uint8) & 1).copy()
    n_rows, n_cols = m.shape
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        eliminate = m[:, col].astype(bool)
        eliminate[rank] = False
        m[eliminate] ^= m[rank]
        rank += 1
        if rank == n_rows:
            break
    return rank


# ---------------------------------------------------------------------------
# Verification passes
# ---------------------------------------------------------------------------


def _linear_findings(mapping: AddressMapping) -> List[Finding]:
    findings: List[Finding] = []
    matrix = mapping_matrix(mapping)
    n = mapping.n_bits
    if matrix.shape[0] != n:
        findings.append(
            Finding(
                "MV001",
                LEVEL_ERROR,
                f"mapping declares {matrix.shape[0]} output bits for "
                f"{n} PA bits",
                location=mapping.name,
            )
        )
    rank = gf2_rank(matrix)
    if rank != n:
        missing = [j for j in range(n) if not matrix[:, j].any()]
        findings.append(
            Finding(
                "MV001",
                LEVEL_ERROR,
                f"GF(2) rank {rank} != {n}: the map is not bijective",
                location=mapping.name,
                detail=f"PA bits never read: {missing}" if missing else
                       "some PA bit feeds two output bits",
            )
        )
    bad_rows = [int(i) for i in range(matrix.shape[0]) if matrix[i].sum() != 1]
    if bad_rows:
        findings.append(
            Finding(
                "MV002",
                LEVEL_ERROR,
                f"{len(bad_rows)} output bit(s) are not driven by exactly "
                "one PA bit",
                location=mapping.name,
                detail=f"output rows {bad_rows[:8]}",
            )
        )
    return findings


def _offset_findings(mapping: AddressMapping) -> List[Finding]:
    """MV012: the controller translates one PA per transfer and moves the
    transfer's bytes in PA order, so the offset field must be the PA LSBs."""
    offset = mapping.positions(Field.OFFSET)
    lsbs = tuple(range(len(offset)))
    if offset == lsbs:
        return []
    return [
        Finding(
            "MV012",
            LEVEL_ERROR,
            "the transfer-offset field is not the PA LSBs in order: bytes "
            "cannot move as whole transfers",
            location=mapping.name,
            detail=f"offset bits at PA positions {list(offset)}, expected "
                   f"{list(lsbs)}",
        )
    ]


def _org_findings(mapping: AddressMapping, org: DramOrganization) -> List[Finding]:
    findings: List[Finding] = []
    expected = {
        Field.CHANNEL: org.channel_bits,
        Field.RANK: org.rank_bits,
        Field.BANK: org.bank_bits,
        Field.COL: org.col_bits,
        Field.OFFSET: org.offset_bits,
    }
    mismatches = {
        fname: (mapping.field_width(fname), width)
        for fname, width in expected.items()
        if mapping.field_width(fname) != width
    }
    fixed = sum(expected.values())
    row_width = mapping.n_bits - fixed
    if mapping.field_width(Field.ROW) != row_width and not mismatches:
        mismatches[Field.ROW] = (mapping.field_width(Field.ROW), row_width)
    if mismatches:
        detail = ", ".join(
            f"{fname}: got {got}, want {want}"
            for fname, (got, want) in sorted(mismatches.items())
        )
        findings.append(
            Finding(
                "MV003",
                LEVEL_ERROR,
                "field widths disagree with the organization",
                location=mapping.name,
                detail=detail,
            )
        )
    return findings


def _pim_placement_findings(
    mapping: AddressMapping, org: DramOrganization, pim: PimConfig
) -> List[Finding]:
    findings: List[Finding] = []
    chunk_span_bits = org.offset_bits + ilog2(
        max(pim.chunk_row_bytes // org.transfer_bytes, 1)
    )
    pu_positions = (
        mapping.positions(Field.CHANNEL)
        + mapping.positions(Field.RANK)
        + mapping.positions(Field.BANK)
    )
    inside = sorted(p for p in pu_positions if p < chunk_span_bits)
    if inside:
        findings.append(
            Finding(
                "MV004",
                LEVEL_ERROR,
                "PU-changing bits inside the chunk span: one chunk row "
                "would straddle processing units",
                location=mapping.name,
                detail=f"PU bits at PA positions {inside} < chunk span "
                       f"{chunk_span_bits}",
            )
        )
        return findings  # contiguity below is meaningless past this point

    # Contiguity: walking one chunk row in PA order must walk consecutive
    # transfer slots of one bank.
    step = org.transfer_bytes
    span = min(pim.chunk_row_bytes, 1 << mapping.n_bits)
    byte_indices: List[int] = []
    for pa in range(0, span, step):
        coord = mapping.decode(pa)
        byte_indices.append(
            coord.row * org.row_bytes + coord.col * org.transfer_bytes
        )
    expected_indices = list(range(0, span, step))
    if byte_indices != expected_indices:
        first_bad = next(
            i for i, (a, b) in enumerate(zip(byte_indices, expected_indices))
            if a != b
        )
        findings.append(
            Finding(
                "MV005",
                LEVEL_ERROR,
                "chunk row is not contiguous inside its bank",
                location=mapping.name,
                detail=f"transfer {first_bad}: bank byte index "
                       f"{byte_indices[first_bad]}, expected "
                       f"{expected_indices[first_bad]}",
            )
        )

    if pim.chunk_rows > 1:
        # The chunk's row-select bits sit directly below the lowest
        # PU-changing bit and must be column bits (all chunk rows in one
        # DRAM row of one bank).
        lowest_pu = min(pu_positions) if pu_positions else mapping.n_bits
        select_bits = range(lowest_pu - ilog2(pim.chunk_rows), lowest_pu)
        col_positions = set(mapping.positions(Field.COL))
        outside = [p for p in select_bits if p not in col_positions]
        if outside:
            findings.append(
                Finding(
                    "MV006",
                    LEVEL_ERROR,
                    "multi-row chunk crosses DRAM rows",
                    location=mapping.name,
                    detail=f"PA bits {outside} below the PU bits select "
                           "the chunk's rows but are not column bits",
                )
            )
    return findings


def verify_mapping(
    mapping: AddressMapping,
    org: Optional[DramOrganization] = None,
) -> List[Finding]:
    """Linear (bijectivity/permutation), transfer-offset and organization
    checks."""
    findings = _linear_findings(mapping) + _offset_findings(mapping)
    if org is not None:
        findings.extend(_org_findings(mapping, org))
    return findings


def verify_pim_mapping(
    mapping: AddressMapping,
    org: DramOrganization,
    pim: PimConfig,
) -> List[Finding]:
    """Full verification of a PIM-optimized mapping: linearity, widths,
    and the placement invariants."""
    findings = verify_mapping(mapping, org)
    if not findings:
        # Placement decoding assumes a well-formed permutation.
        findings.extend(_pim_placement_findings(mapping, org, pim))
    return findings


# ---------------------------------------------------------------------------
# Selector-reachable sweep
# ---------------------------------------------------------------------------


def chunk_max_map_id(
    org: DramOrganization, pim: PimConfig, n_bits: int
) -> int:
    """Largest MapID the chunk-constrained layout admits for this
    organization — the builder's bound, always <= :func:`max_map_id`."""
    chunk_bits = ilog2(max(pim.chunk_bytes // org.transfer_bytes, 1))
    return n_bits - org.offset_bits - org.interleave_bits() - chunk_bits


def verify_selection(
    matrix: MatrixConfig,
    org: DramOrganization,
    pim: PimConfig,
    huge_page_bytes: int = 2 << 20,
    pte_map_id_bits: int = MAP_ID_BITS,
) -> List[Finding]:
    """Run the selector for *matrix* and verify everything it implies:
    PTE encodability, theoretical bounds, and the built mapping."""
    findings: List[Finding] = []
    location = f"{matrix.rows}x{matrix.cols}@{org.total_banks}banks"
    try:
        selection = select_mapping(matrix, org, pim, huge_page_bytes)
    except ValueError:
        return findings  # incompatible config rejected up front: not a bug
    if selection.map_id >= (1 << pte_map_id_bits):
        findings.append(
            Finding(
                "MV007",
                LEVEL_ERROR,
                f"MapID {selection.map_id} needs more than "
                f"{pte_map_id_bits} PTE spare bits",
                location=location,
            )
        )
    theoretical = max_map_id(org, huge_page_bytes)
    if selection.map_id > theoretical:
        findings.append(
            Finding(
                "MV009",
                LEVEL_ERROR,
                f"MapID {selection.map_id} exceeds the theoretical "
                f"maximum {theoretical}",
                location=location,
            )
        )
    try:
        mapping = pim_optimized_mapping(
            org=org,
            chunk_rows=pim.chunk_rows,
            chunk_cols=pim.chunk_cols,
            dtype_bytes=pim.dtype_bytes,
            map_id=selection.map_id,
            n_bits=ilog2(huge_page_bytes),
            pu_order=pu_order_for(selection),
        )
    except ValueError as exc:
        findings.append(
            Finding(
                "MV008",
                LEVEL_ERROR,
                f"builder rejects the selector's MapID "
                f"{selection.map_id}: {exc}",
                location=location,
            )
        )
        return findings
    findings.extend(verify_pim_mapping(mapping, org, pim))
    return findings


def verify_kv_blocks(
    mapping: AddressMapping,
    org: DramOrganization,
    pim: PimConfig,
    block_bytes: int,
    n_blocks: int = 2,
    base_offset: int = 0,
    location: str = "",
) -> List[Finding]:
    """KV placement rules MV010/MV011 for a block pool arena.

    A KV block is read by the PIM attention sweep one chunk row at a
    time, so every block must start on a chunk-row boundary and be a
    whole number of chunk rows (MV010), and each chunk-row-sized window
    inside each block must decode — through the *actual* mapping — to a
    single contiguous run of transfers inside one bank row (MV011).
    Huge pages of one arena share a MapID, so placement is periodic in
    the page and checking the first *n_blocks* blocks covers the pool.
    """
    findings: List[Finding] = []
    loc = location or f"kv-blocks@{mapping.name}"
    crb = pim.chunk_row_bytes
    if block_bytes <= 0:
        raise ValueError("block_bytes must be positive")
    if block_bytes % crb != 0 or base_offset % crb != 0:
        findings.append(
            Finding(
                "MV010",
                LEVEL_ERROR,
                f"KV block geometry is not chunk-row aligned: base offset "
                f"{base_offset}, block {block_bytes} B, chunk row {crb} B",
                location=loc,
            )
        )
        return findings  # window walks below assume alignment
    pa_mask = (1 << mapping.n_bits) - 1
    step = org.transfer_bytes
    for block in range(n_blocks):
        base = base_offset + block * block_bytes
        for window in range(base, base + block_bytes, crb):
            coords = [
                mapping.decode((window + off) & pa_mask)
                for off in range(0, crb, step)
            ]
            units = {(c.channel, c.rank, c.bank, c.row) for c in coords}
            cols = [c.col for c in coords]
            contiguous = cols == list(range(cols[0], cols[0] + len(cols)))
            if len(units) != 1 or not contiguous:
                reason = (
                    f"window at +{window - base} of block {block} touches "
                    f"{len(units)} (ch,rank,bank,row) unit(s)"
                    if len(units) != 1
                    else f"window at +{window - base} of block {block} has "
                    f"non-contiguous columns {cols[:4]}..."
                )
                findings.append(
                    Finding(
                        "MV011",
                        LEVEL_ERROR,
                        "KV chunk-row window is not one contiguous run in "
                        "one bank row",
                        location=loc,
                        detail=reason,
                    )
                )
                break  # one finding per block is enough signal
    return findings


def verify_platform(
    name: str,
    org: DramOrganization,
    pim: PimConfig,
    conventional: AddressMapping,
    huge_page_bytes: int = 2 << 20,
    matrices: Optional[Sequence[Tuple[int, int]]] = None,
    pte_map_id_bits: int = MAP_ID_BITS,
) -> Tuple[List[Finding], int]:
    """Verify everything reachable on one platform.

    Checks the conventional mapping, every chunk-admissible MapID under
    both PU-bit orders, and the selector across a matrix battery.
    Returns ``(findings, mappings_checked)``.
    """
    findings: List[Finding] = []
    checked = 0
    n_bits = ilog2(huge_page_bytes)

    findings.extend(
        _tagged(verify_mapping(conventional, org), name)
    )
    checked += 1

    ceiling = chunk_max_map_id(org, pim, n_bits)
    budget_ceiling = max_map_id(org, huge_page_bytes)
    if budget_ceiling >= (1 << pte_map_id_bits):
        findings.append(
            Finding(
                "MV007",
                LEVEL_ERROR,
                f"theoretical MapID maximum {budget_ceiling} does not fit "
                f"the {pte_map_id_bits} spare PTE bits",
                location=name,
            )
        )
    pu_orders: Tuple[Tuple[str, str, str], ...] = (
        (Field.BANK, Field.RANK, Field.CHANNEL),
        (Field.CHANNEL, Field.RANK, Field.BANK),
    )
    for map_id in range(max(ceiling, -1) + 1):
        for pu_order in pu_orders:
            try:
                mapping = pim_optimized_mapping(
                    org=org,
                    chunk_rows=pim.chunk_rows,
                    chunk_cols=pim.chunk_cols,
                    dtype_bytes=pim.dtype_bytes,
                    map_id=map_id,
                    n_bits=n_bits,
                    pu_order=pu_order,
                )
            except ValueError as exc:
                findings.append(
                    Finding(
                        "MV008",
                        LEVEL_ERROR,
                        f"builder rejects chunk-admissible MapID "
                        f"{map_id} ({'/'.join(pu_order)}): {exc}",
                        location=name,
                    )
                )
                continue
            findings.extend(
                _tagged(verify_pim_mapping(mapping, org, pim), name)
            )
            checked += 1

    for rows, cols in matrices if matrices is not None else DEFAULT_MATRIX_BATTERY:
        findings.extend(
            _tagged(
                verify_selection(
                    MatrixConfig(rows=rows, cols=cols),
                    org,
                    pim,
                    huge_page_bytes,
                    pte_map_id_bits,
                ),
                name,
            )
        )
        checked += 1

    # KV block pool arenas: the exact shapes repro.kvcache.KvSpec builds
    for block_tokens, kv_dim in KV_BLOCK_BATTERY:
        kv_matrix = MatrixConfig(rows=64 * block_tokens, cols=kv_dim)
        try:
            selection = select_mapping(kv_matrix, org, pim, huge_page_bytes)
        except ValueError:
            continue  # incompatible config rejected up front: not a bug
        kv_location = f"kv{block_tokens}x{kv_dim}"
        try:
            mapping = pim_optimized_mapping(
                org=org,
                chunk_rows=pim.chunk_rows,
                chunk_cols=pim.chunk_cols,
                dtype_bytes=pim.dtype_bytes,
                map_id=selection.map_id,
                n_bits=n_bits,
                pu_order=pu_order_for(selection),
            )
        except ValueError as exc:
            findings.append(
                Finding(
                    "MV008",
                    LEVEL_ERROR,
                    f"builder rejects the KV arena's MapID "
                    f"{selection.map_id}: {exc}",
                    location=f"{name}:{kv_location}",
                )
            )
            continue
        block_bytes = block_tokens * selection.padded_row_bytes
        findings.extend(
            _tagged(
                verify_kv_blocks(
                    mapping, org, pim, block_bytes, location=kv_location
                ),
                name,
            )
        )
        checked += 1
    return findings, checked


def _tagged(findings: Iterable[Finding], platform: str) -> List[Finding]:
    """Prefix finding locations with the platform name."""
    out: List[Finding] = []
    for f in findings:
        location = f"{platform}:{f.location}" if f.location else platform
        out.append(
            Finding(f.rule_id, f.level, f.message, location, f.detail)
        )
    return out
