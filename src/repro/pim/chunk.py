"""Chunk placement enumeration and invariant checking.

A *chunk-row segment* is the contiguous slice of one matrix row that one
PU consumes from one DRAM row (for AiM a whole chunk; for HBM-PIM one of
the chunk's 8 rows).  :func:`enumerate_placements` recovers, for a tensor
allocated by pimalloc, where every segment physically lives — the ground
truth used by the functional PIM executor, the invariant checks, and the
cross-validation of the analytic timing model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.mapping import Field

if TYPE_CHECKING:  # circular at runtime: pimalloc imports repro.pim
    from repro.core.pimalloc import PimTensor

__all__ = ["ChunkSegment", "enumerate_placements", "verify_placement_invariants"]


@dataclass(frozen=True)
class ChunkSegment:
    """One matrix-row slice as stored for PIM consumption.

    Attributes:
        channel/rank/bank/row: the DRAM row holding the slice.
        col_start: first column access (transfer index) of the slice.
        n_transfers: length of the slice in transfers.
        m: matrix row index.
        k_start: first (padded) column index of the slice.
    """

    channel: int
    rank: int
    bank: int
    row: int
    col_start: int
    n_transfers: int
    m: int
    k_start: int

    @property
    def pu(self) -> Tuple[int, int, int]:
        return (self.channel, self.rank, self.bank)

    def segment_id(self, elems_per_segment: int) -> int:
        """Index of the input-vector segment this slice consumes."""
        return self.k_start // elems_per_segment


def enumerate_placements(tensor: "PimTensor") -> List["ChunkSegment"]:
    """Recover every chunk-row segment's physical placement.

    Works by translating the tensor's whole VA range (vectorised) and
    grouping elements into ``chunk_row_bytes`` slices; each slice must be
    physically contiguous inside one DRAM row or the placement is invalid.
    """
    allocator = tensor.allocator
    org = allocator.org
    pim = allocator.pim
    dtype_bytes = tensor.matrix.dtype_bytes
    lda = tensor.lda
    elems_per_segment = pim.chunk_row_bytes // dtype_bytes
    n_elems = tensor.matrix.rows * lda
    if n_elems % elems_per_segment:
        raise ValueError("tensor size is not a whole number of chunk rows")

    controller = allocator.controller
    segments: List[ChunkSegment] = []
    transfer = org.transfer_bytes
    runs = allocator.space.mmu.translate_range(tensor.va, n_elems * dtype_bytes)
    va_off = 0
    for pa, length, map_id in runs:
        byte_off = np.arange(0, length, transfer, dtype=np.int64)
        fields = controller.translate_array(pa + byte_off, map_id)
        elem = (va_off + byte_off) // dtype_bytes
        seg_id = elem // elems_per_segment
        order = np.argsort(seg_id, kind="stable")
        for field_name in list(fields):
            fields[field_name] = fields[field_name][order]
        elem = elem[order]
        seg_id = seg_id[order]
        boundaries = np.flatnonzero(np.diff(seg_id)) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [len(seg_id)]))
        for start, stop in zip(starts, stops):
            ch = fields[Field.CHANNEL][start:stop]
            rk = fields[Field.RANK][start:stop]
            bk = fields[Field.BANK][start:stop]
            rw = fields[Field.ROW][start:stop]
            cl = fields[Field.COL][start:stop]
            if not (
                (ch == ch[0]).all()
                and (rk == rk[0]).all()
                and (bk == bk[0]).all()
                and (rw == rw[0]).all()
            ):
                raise AssertionError(
                    "chunk row straddles banks/rows: placement violates the "
                    "PIM contiguity constraint"
                )
            cols = np.sort(cl)
            if not (np.diff(cols) == 1).all():
                raise AssertionError("chunk row is not column-contiguous")
            first_elem = int(elem[start])
            segments.append(
                ChunkSegment(
                    channel=int(ch[0]),
                    rank=int(rk[0]),
                    bank=int(bk[0]),
                    row=int(rw[0]),
                    col_start=int(cols[0]),
                    n_transfers=int(stop - start),
                    m=first_elem // lda,
                    k_start=first_elem % lda,
                )
            )
        va_off += length
    return segments


def verify_placement_invariants(
    segments: List[ChunkSegment],
    tensor: "PimTensor",
) -> None:
    """Check the three placement properties of §II-C on real placements.

    1. **Chunk contiguity** — already enforced structurally by
       :func:`enumerate_placements`.
    2. **Lock-step alignment** — all banks of one rank, at the same DRAM
       (row, col) position, consume the *same input segment* (so the
       shared global buffer serves them all).
    3. **Row locality** — without partitioning, a matrix row lives wholly
       in one bank; with partitioning, in exactly
       ``selection.partitions_per_row`` PUs.

    Raises:
        AssertionError: if any invariant fails.
    """
    pim = tensor.allocator.pim
    elems_per_segment = pim.chunk_row_bytes // tensor.matrix.dtype_bytes

    lockstep: Dict[Tuple[int, int, int, int], int] = {}
    for seg in segments:
        key = (seg.channel, seg.rank, seg.row, seg.col_start)
        sid = seg.segment_id(elems_per_segment)
        if key in lockstep and lockstep[key] != sid:
            raise AssertionError(
                f"lock-step violation at {key}: banks of one rank need "
                f"segments {lockstep[key]} and {sid} simultaneously"
            )
        lockstep[key] = sid

    pus_per_row: Dict[int, set] = {}
    for seg in segments:
        pus_per_row.setdefault(seg.m, set()).add(seg.pu)
    expected = tensor.selection.partitions_per_row
    for m, pus in pus_per_row.items():
        if len(pus) > expected:
            raise AssertionError(
                f"matrix row {m} spread over {len(pus)} PUs; selector "
                f"promised at most {expected}"
            )
