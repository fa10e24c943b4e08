"""PA-to-DA address mappings: conventional and PIM-optimized (paper §IV-B).

Every mapping is a **bit permutation** over the page-offset bits of a huge
page: each physical-address bit feeds exactly one bit of one DRAM
coordinate field.  This is precisely the formulation FACIL's augmented
memory-controller frontend implements with an array of N-to-1 multiplexers
(paper Fig. 12), so representing mappings this way keeps the software model
and the proposed hardware in one-to-one correspondence.

Two families are provided:

* :func:`conventional_mapping` — the SoC's default interleaving, built from
  a spec string such as ``"row rank col bank channel"`` (MSB to LSB; the
  paper's baseline, verified to reach near-peak sequential bandwidth).
* :func:`pim_optimized_mapping` — the FACIL family parameterized by
  ``map_id``, supporting both AiM-style chunks (1, 1024) and HBM-PIM-style
  chunks (8, 128).  ``map_id`` counts the DRAM-row bits placed between the
  chunk bits and the PU-changing (bank/rank/channel) bits, i.e. it encodes
  how many chunk-columns of a matrix row live in one bank before the
  placement moves to the next PU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.bitfield import (
    deposit_bits,
    extract_bits,
    extract_bits_array,
    ilog2,
    is_pow2,
)
from repro.dram.address import FIELDS, DramCoord, Field
from repro.dram.config import DramOrganization

__all__ = [
    "Field",
    "FIELDS",
    "AddressMapping",
    "conventional_mapping",
    "pim_optimized_mapping",
    "max_map_id",
    "CONVENTIONAL_SPEC",
]


#: The paper's assumed SoC mapping: ``row:rank:column:bank:channel``
#: (MSB to LSB), which it verifies achieves near-peak sequential read
#: bandwidth (§VI-A).
CONVENTIONAL_SPEC = "row rank col bank channel"


@dataclass(frozen=True)
class AddressMapping:
    """A bit permutation from page-offset bits to DRAM coordinate fields.

    Attributes:
        name: human-readable identifier (e.g. ``"conventional"``,
            ``"aim-map3"``).
        n_bits: number of physical-address bits this mapping covers
            (``log2(huge page size)`` in FACIL).
        fields: for each field, the tuple of PA bit positions feeding it,
            LSB first.  The union of all tuples must be exactly
            ``{0, ..., n_bits-1}``.
    """

    name: str
    n_bits: int
    fields: Mapping[str, Tuple[int, ...]]

    def __post_init__(self) -> None:
        seen: List[int] = []
        for fname, positions in self.fields.items():
            if fname not in FIELDS:
                raise ValueError(f"unknown field {fname!r}")
            seen.extend(positions)
        if sorted(seen) != list(range(self.n_bits)):
            raise ValueError(
                f"mapping {self.name!r} is not a permutation of "
                f"{self.n_bits} bits: positions={sorted(seen)}"
            )

    # -- basic queries ------------------------------------------------------

    def field_width(self, fname: str) -> int:
        return len(self.fields.get(fname, ()))

    def positions(self, fname: str) -> Tuple[int, ...]:
        return tuple(self.fields.get(fname, ()))

    @property
    def row_bits(self) -> int:
        """In-page row bits (the page's share of the DRAM row index)."""
        return self.field_width(Field.ROW)

    # -- translation ---------------------------------------------------------

    def decode(self, pa: int) -> DramCoord:
        """Translate an in-page physical address to a DRAM coordinate.

        The returned ``row`` holds only the in-page row bits; the memory
        controller prepends the page frame number as the row MSBs.
        """
        if not 0 <= pa < (1 << self.n_bits):
            raise ValueError(f"pa {pa:#x} outside {self.n_bits}-bit page")
        return DramCoord(
            channel=extract_bits(pa, self.positions(Field.CHANNEL)),
            rank=extract_bits(pa, self.positions(Field.RANK)),
            bank=extract_bits(pa, self.positions(Field.BANK)),
            row=extract_bits(pa, self.positions(Field.ROW)),
            col=extract_bits(pa, self.positions(Field.COL)),
            offset=extract_bits(pa, self.positions(Field.OFFSET)),
        )

    def encode(self, coord: DramCoord) -> int:
        """Inverse of :func:`decode` (in-page row bits only)."""
        pa = 0
        pa |= deposit_bits(coord.channel, self.positions(Field.CHANNEL))
        pa |= deposit_bits(coord.rank, self.positions(Field.RANK))
        pa |= deposit_bits(coord.bank, self.positions(Field.BANK))
        pa |= deposit_bits(coord.row, self.positions(Field.ROW))
        pa |= deposit_bits(coord.col, self.positions(Field.COL))
        pa |= deposit_bits(coord.offset, self.positions(Field.OFFSET))
        return pa

    def decode_array(self, pas: np.ndarray) -> Dict[str, np.ndarray]:
        """Vectorised decode of many in-page addresses at once."""
        return {
            fname: extract_bits_array(pas, self.positions(fname))
            for fname in FIELDS
        }

    # -- introspection --------------------------------------------------------

    def bit_layout(self) -> List[Tuple[str, int]]:
        """Per-PA-bit view: entry *i* is ``(field, bit-within-field)`` for
        PA bit *i*.  This is what each hardware mux in Fig. 12 selects."""
        layout: List[Tuple[str, int]] = [("", 0)] * self.n_bits
        for fname, positions in self.fields.items():
            for bit_index, pa_pos in enumerate(positions):
                layout[pa_pos] = (fname, bit_index)
        return layout

    def describe(self) -> str:
        """Render the MSB-to-LSB field layout, grouping adjacent bits."""
        layout = self.bit_layout()
        groups: List[Tuple[str, int]] = []
        for fname, _ in layout:
            if groups and groups[-1][0] == fname:
                groups[-1] = (fname, groups[-1][1] + 1)
            else:
                groups.append((fname, 1))
        return ":".join(
            f"{fname}[{count}]" for fname, count in reversed(groups)
        )

    def matches_organization(self, org: DramOrganization) -> bool:
        """Check the field widths agree with *org* (row width may vary with
        page size, so only its non-negativity is implied)."""
        return (
            self.field_width(Field.CHANNEL) == org.channel_bits
            and self.field_width(Field.RANK) == org.rank_bits
            and self.field_width(Field.BANK) == org.bank_bits
            and self.field_width(Field.COL) == org.col_bits
            and self.field_width(Field.OFFSET) == org.offset_bits
        )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _fields_from_groups(
    groups: Sequence[Tuple[str, int]],
) -> Dict[str, Tuple[int, ...]]:
    """Assign consecutive PA bit positions (starting at 0) to *groups*,
    given LSB-first.  A field may appear in multiple groups; later groups
    extend the field's higher-order bits."""
    fields: Dict[str, List[int]] = {}
    position = 0
    for fname, count in groups:
        if count < 0:
            raise ValueError(f"negative width for {fname}: {count}")
        fields.setdefault(fname, []).extend(range(position, position + count))
        position += count
    return {fname: tuple(pos) for fname, pos in fields.items()}


def conventional_mapping(
    org: DramOrganization,
    n_bits: int,
    spec: str = CONVENTIONAL_SPEC,
    name: str = "conventional",
) -> AddressMapping:
    """Build the SoC's default mapping from an MSB-to-LSB field spec.

    The transfer-offset bits always occupy the LSBs and are not named in
    the spec.  The ``row`` field absorbs whatever bits remain after the
    fixed-width fields, so the same spec works for any page size.
    """
    widths = {
        Field.CHANNEL: org.channel_bits,
        Field.RANK: org.rank_bits,
        Field.BANK: org.bank_bits,
        Field.COL: org.col_bits,
    }
    tokens = spec.split()
    if sorted(tokens) != sorted(list(widths) + [Field.ROW]):
        raise ValueError(
            f"spec must name each of channel/rank/bank/col/row once, got {spec!r}"
        )
    fixed = org.offset_bits + sum(widths.values())
    row_width = n_bits - fixed
    if row_width < 0:
        raise ValueError(
            f"page of {n_bits} bits too small for organization needing {fixed}"
        )
    widths[Field.ROW] = row_width
    groups: List[Tuple[str, int]] = [(Field.OFFSET, org.offset_bits)]
    groups.extend((token, widths[token]) for token in reversed(tokens))
    return AddressMapping(name=name, n_bits=n_bits, fields=_fields_from_groups(groups))


def max_map_id(org: DramOrganization, huge_page_bytes: int) -> int:
    """Theoretical maximum MapID (paper §IV-B):

    ``log2(huge page size / (total bank count * DRAM transfer size))``

    i.e. the number of positions at which the PU-changing bits can sit
    between the page-offset MSB and the transfer-offset bits.
    """
    denominator = org.total_banks * org.transfer_bytes
    if huge_page_bytes < denominator:
        raise ValueError(
            f"huge page ({huge_page_bytes} B) smaller than one transfer per "
            f"bank ({denominator} B); cannot interleave across all PUs"
        )
    return ilog2(huge_page_bytes // denominator)


def pim_optimized_mapping(
    org: DramOrganization,
    chunk_rows: int,
    chunk_cols: int,
    dtype_bytes: int,
    map_id: int,
    n_bits: int,
    name: str = "",
    pu_order: Tuple[str, str, str] = (Field.BANK, Field.RANK, Field.CHANNEL),
) -> AddressMapping:
    """Build a PIM-optimized mapping for the given chunk shape and MapID.

    Bit layout, LSB to MSB (paper Fig. 8):

    1. transfer-offset bits;
    2. *chunk-column* bits — enough column (and, if a chunk exceeds one
       DRAM row, row) bits to keep one chunk row contiguous in a bank;
    3. ``map_id`` DRAM-row bits (``log2(matrix columns / chunk columns)``
       chosen by the selector) so a whole matrix row stays in one bank;
    4. for chunk_rows > 1 (HBM-PIM style), ``log2(chunk_rows)`` further
       column bits, keeping a chunk's rows inside one DRAM row;
    5. the PU-changing bits: bank, then rank, then channel;
    6. remaining row bits fill the page-offset MSBs.

    ``map_id`` therefore counts the bits between the PU-changing bits and
    the chunk bits, exactly the paper's MapID definition for both styles.

    ``pu_order`` gives the LSB-to-MSB order of the PU-changing bits.  The
    default (bank, rank, channel) matches Fig. 8.  When a matrix row is
    column-wise partitioned across PUs (Fig. 10), the selector flips it to
    (channel, rank, bank) so that partitions of one row land in *different
    channels* — each channel/rank has its own input global buffer, so the
    all-bank lock-step constraint (every bank of a rank consumes the same
    input segment) is preserved.
    """
    if not is_pow2(chunk_rows) or not is_pow2(chunk_cols):
        raise ValueError("chunk dimensions must be powers of two")
    if not is_pow2(dtype_bytes):
        raise ValueError("dtype size must be a power of two")
    if map_id < 0:
        raise ValueError(f"map_id must be non-negative, got {map_id}")

    chunk_col_bytes = chunk_cols * dtype_bytes
    if chunk_col_bytes < org.transfer_bytes:
        raise ValueError(
            f"one chunk row ({chunk_col_bytes} B) is smaller than a DRAM "
            f"transfer ({org.transfer_bytes} B)"
        )
    chunk_bits_total = ilog2(chunk_col_bytes // org.transfer_bytes)
    chunk_col_part = min(chunk_bits_total, org.col_bits)
    chunk_row_part = chunk_bits_total - chunk_col_part  # chunk > one DRAM row

    chunk_row_bits = ilog2(chunk_rows)
    if chunk_col_part + chunk_row_bits > org.col_bits:
        raise ValueError(
            f"chunk ({chunk_rows}x{chunk_cols}) needs "
            f"{chunk_col_part + chunk_row_bits} column bits but the DRAM row "
            f"provides only {org.col_bits}"
        )

    pu_bits = org.interleave_bits()
    used = (
        org.offset_bits
        + chunk_col_part
        + chunk_row_part
        + map_id
        + chunk_row_bits
        + pu_bits
    )
    if used > n_bits:
        raise ValueError(
            f"map_id={map_id} does not fit: layout needs {used} bits, page "
            f"has {n_bits} (max map_id here is {n_bits - used + map_id})"
        )
    row_hi = n_bits - used

    if sorted(pu_order) != sorted((Field.BANK, Field.RANK, Field.CHANNEL)):
        raise ValueError(f"pu_order must permute bank/rank/channel, got {pu_order}")
    pu_widths = {
        Field.BANK: org.bank_bits,
        Field.RANK: org.rank_bits,
        Field.CHANNEL: org.channel_bits,
    }
    pu_groups = [(fname, pu_widths[fname]) for fname in pu_order]
    groups: List[Tuple[str, int]] = [
        (Field.OFFSET, org.offset_bits),
        (Field.COL, chunk_col_part),
        (Field.ROW, chunk_row_part),
        (Field.ROW, map_id),
        (Field.COL, chunk_row_bits),
        *pu_groups,
        (Field.ROW, row_hi),
    ]
    # The row field inside a page may be narrower than the bank's full row
    # index; remaining column bits beyond what the chunk uses must still be
    # assigned.  For AiM (chunk == full DRAM row) there are none; for
    # smaller chunks the leftover column bits sit directly above the chunk
    # bits so that consecutive chunks of the same matrix row share a DRAM
    # row when map_id > 0.  The MapID counts *all* bits between the chunk
    # and the PU-changing bits, column or row: when the matrix row fills
    # less than one DRAM row (map_id < leftover_col) the surplus column
    # bits move above the PU bits, so a bank's DRAM row then holds
    # 2**(leftover_col - map_id) distant page segments — reduced locality,
    # but each matrix row still lives wholly in one PU.
    leftover_col = org.col_bits - chunk_col_part - chunk_row_bits
    if leftover_col:
        mid_col = min(map_id, leftover_col)
        spill_col = leftover_col - mid_col
        if spill_col > row_hi:
            raise ValueError(
                f"map_id={map_id} does not fit: {spill_col} leftover column "
                f"bits spill past the page MSB ({row_hi} bits remain)"
            )
        groups = [
            (Field.OFFSET, org.offset_bits),
            (Field.COL, chunk_col_part),
            (Field.ROW, chunk_row_part),
            (Field.COL, mid_col),
            (Field.ROW, map_id - mid_col),
            (Field.COL, chunk_row_bits),
            *pu_groups,
            (Field.COL, spill_col),
            (Field.ROW, row_hi - spill_col),
        ]
    if not name:
        style = "aim" if chunk_rows == 1 else "hbmpim"
        name = f"{style}-map{map_id}"
    return AddressMapping(name=name, n_bits=n_bits, fields=_fields_from_groups(groups))
