"""pimalloc: FACIL's user-level allocation library (paper Fig. 7a).

``pimalloc`` is the programmer-facing entry point.  Given a weight
matrix's dimensions and datatype it

1. runs the **mapping selector** to pick the optimal PIM mapping (MapID),
2. registers that mapping with the memory controller's mapping table,
3. allocates huge pages through the extended ``mmap`` with the MapID
   recorded in the page-table entries, and
4. returns a tensor handle whose loads/stores go through ordinary
   contiguous virtual addresses — the controller transparently applies the
   PIM-optimized PA-to-DA mapping.

The same physical bytes are then directly operable by the PIM processing
units (see :mod:`repro.pim.functional`) with no re-layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.bitfield import ilog2
from repro.core.controller import MemoryController
from repro.core.journal import JournalTxn, MapJournal
from repro.core.mapping import AddressMapping, pim_optimized_mapping
from repro.core.selector import (
    MappingSelection,
    MatrixConfig,
    pu_order_for,
    select_mapping,
)
from repro.dram.config import DramOrganization
from repro.dram.memory import PhysicalMemory
from repro.os.buddy import BuddyAllocator
from repro.os.page_table import PAGE_SHIFT
from repro.os.vm import AddressSpace
from repro.pim.config import PimConfig

__all__ = ["PimTensor", "PimAllocator", "PimSystem"]


@dataclass
class PimTensor:
    """Handle to a matrix stored with a PIM-optimized mapping.

    The virtual-address view is a plain row-major matrix with a
    power-of-two leading dimension (``lda``) — exactly what BLAS kernels
    consume — while the physical placement satisfies the PIM constraints.
    """

    va: int
    matrix: MatrixConfig
    selection: MappingSelection
    mapping: AddressMapping
    map_id: int
    allocator: "PimAllocator"

    @property
    def lda(self) -> int:
        """Leading dimension: columns padded to a power of two and to at
        least one chunk row (the selector's padded row)."""
        return self.selection.padded_row_bytes // self.matrix.dtype_bytes

    @property
    def nbytes_padded(self) -> int:
        return self.matrix.rows * self.selection.padded_row_bytes

    def element_va(self, row: int, col: int) -> int:
        """Virtual address of element (row, col)."""
        if not (0 <= row < self.matrix.rows and 0 <= col < self.matrix.cols):
            raise IndexError(f"({row}, {col}) outside matrix")
        return self.va + (row * self.lda + col) * self.matrix.dtype_bytes

    # -- data movement (the SoC's view) -----------------------------------

    def store(self, array: np.ndarray) -> None:
        """Write *array* (shape ``rows x cols``) through virtual addresses."""
        array = np.asarray(array)
        if array.shape != (self.matrix.rows, self.matrix.cols):
            raise ValueError(
                f"expected {(self.matrix.rows, self.matrix.cols)}, "
                f"got {array.shape}"
            )
        if array.dtype.itemsize != self.matrix.dtype_bytes:
            raise ValueError(
                f"dtype {array.dtype} has {array.dtype.itemsize} B elements; "
                f"tensor expects {self.matrix.dtype_bytes} B"
            )
        padded = np.zeros((self.matrix.rows, self.lda), dtype=array.dtype)
        padded[:, : self.matrix.cols] = array
        self.allocator.write_virtual(self.va, padded.reshape(-1).view(np.uint8))

    def load(self, dtype: np.dtype) -> np.ndarray:
        """Read the matrix back through virtual addresses."""
        dtype = np.dtype(dtype)
        if dtype.itemsize != self.matrix.dtype_bytes:
            raise ValueError(f"dtype {dtype} does not match element size")
        raw = self.allocator.read_virtual(self.va, self.nbytes_padded)
        padded = raw.view(dtype).reshape(self.matrix.rows, self.lda)
        return padded[:, : self.matrix.cols].copy()

    def free(self) -> None:
        """Unmap the region and drop its mapping-table reference.

        Without the release, alloc/free churn over distinct mappings
        leaks MapIDs until the controller's table fills — the table is a
        hardware resource bounded at 16 entries.  With a journal attached
        to the allocator the two steps are crash-consistent: a crash
        between them rolls forward on recovery.
        """
        self.allocator.free(self)


class PimAllocator:
    """Implements pimalloc over an address space and a memory controller."""

    def __init__(
        self,
        org: DramOrganization,
        pim: PimConfig,
        controller: MemoryController,
        space: AddressSpace,
        huge_page_bytes: int = 2 << 20,
    ) -> None:
        if controller.page_bytes != huge_page_bytes:
            raise ValueError("controller page size must equal the huge page size")
        self.org = org
        self.pim = pim
        self.controller = controller
        self.space = space
        self.huge_page_bytes = huge_page_bytes
        #: reliability hook (see :mod:`repro.reliability.faults`): when
        #: set, ``fault_hook.on_pimalloc(matrix)`` runs before each
        #: allocation and may raise (injected buddy OOM, PU failures).
        self.fault_hook = None
        #: optional write-ahead intent journal; when attached, every
        #: multi-step mutation (alloc, free, phase switch) records its
        #: intent and completed steps so :func:`repro.core.journal.recover`
        #: can replay a crash back to a consistent state.
        self.journal: Optional[MapJournal] = None
        #: selector choice and mapping per matrix shape: both depend only
        #: on the shape, the org, the PIM config and the page size, and
        #: the last three are fixed here
        self._placements: Dict[
            MatrixConfig, Tuple[MappingSelection, AddressMapping]
        ] = {}

    # -- journal plumbing --------------------------------------------------

    def _jstep(self, txn: Optional[JournalTxn], name: str, **detail) -> None:
        if txn is not None and self.journal is not None:
            self.journal.step(txn, name, **detail)

    def _jcheckpoint(self, site: str) -> None:
        if self.journal is not None:
            self.journal.checkpoint(site)

    def _build_mapping(
        self,
        selection: MappingSelection,
        pu_order: Optional[Tuple[str, str, str]] = None,
    ) -> AddressMapping:
        return pim_optimized_mapping(
            org=self.org,
            chunk_rows=self.pim.chunk_rows,
            chunk_cols=self.pim.chunk_cols,
            dtype_bytes=self.pim.dtype_bytes,
            map_id=selection.map_id,
            n_bits=ilog2(self.huge_page_bytes),
            pu_order=pu_order if pu_order is not None else pu_order_for(selection),
        )

    def _placement(
        self, matrix: MatrixConfig
    ) -> Tuple[MappingSelection, AddressMapping]:
        placement = self._placements.get(matrix)
        if placement is None:
            selection = select_mapping(
                matrix, self.org, self.pim, self.huge_page_bytes
            )
            placement = (selection, self._build_mapping(selection))
            self._placements[matrix] = placement
        return placement

    # -- the pimalloc interface ----------------------------------------------

    def pimalloc(self, matrix: MatrixConfig) -> PimTensor:
        """Allocate *matrix* with the selector-chosen PIM mapping."""
        if self.fault_hook is not None:
            self.fault_hook.on_pimalloc(matrix)
        selection, mapping = self._placement(matrix)
        nbytes = matrix.rows * selection.padded_row_bytes
        txn = None
        if self.journal is not None:
            txn = self.journal.begin(
                "alloc",
                rows=matrix.rows,
                cols=matrix.cols,
                dtype_bytes=matrix.dtype_bytes,
                nbytes=nbytes,
            )
        self._jcheckpoint("alloc:begin")
        try:
            map_id = self.controller.table.register(mapping)
        except Exception:
            # A rejected registration (a full table) changed nothing,
            # so the txn is committed as a no-op.
            if txn is not None and self.journal is not None:
                self.journal.commit(txn)
            raise
        self._jstep(txn, "registered", map_id=map_id)
        self._jcheckpoint("alloc:registered")
        try:
            va = self.space.mmap(nbytes, huge=True, map_id=map_id)
        except Exception:
            # Unwound synchronously: the failed txn leaves nothing for
            # recovery to undo, so it is committed as a no-op.
            self.controller.table.release(map_id)
            if txn is not None and self.journal is not None:
                self.journal.commit(txn)
            raise
        self._jstep(txn, "mapped", va=va, nbytes=nbytes)
        self._jcheckpoint("alloc:mapped")
        if txn is not None and self.journal is not None:
            self.journal.commit(txn)
        return PimTensor(
            va=va,
            matrix=matrix,
            selection=selection,
            mapping=mapping,
            map_id=map_id,
            allocator=self,
        )

    def free(self, tensor: PimTensor) -> None:
        """Tear down *tensor*: unmap the region, release the mapping.

        Raises:
            ValueError: when the tensor's area is not mapped (a double
                free), before anything is journaled.
        """
        if tensor.va not in self.space.areas:
            raise ValueError(f"va {tensor.va:#x} is not the start of a mapped area")
        txn = None
        if self.journal is not None:
            txn = self.journal.begin("free", va=tensor.va, map_id=tensor.map_id)
        self._jcheckpoint("free:begin")
        self.space.munmap(tensor.va)
        self._jstep(txn, "unmapped", va=tensor.va)
        self._jcheckpoint("free:unmapped")
        self.controller.table.release(tensor.map_id)
        self._jstep(txn, "released", map_id=tensor.map_id)
        if txn is not None and self.journal is not None:
            self.journal.commit(txn)

    def switch_mapping(
        self,
        tensor: PimTensor,
        pu_order: Optional[Tuple[str, str, str]] = None,
    ) -> PimTensor:
        """Phase switch: re-route a live tensor through a different
        PIM-admissible mapping (default: the alternate PU-bit order),
        migrating the stored bytes so the virtual-address contents are
        preserved.

        The migration is the classic live-remapping hazard: once any
        huge page's PTE carries the new MapID, reads through it scramble
        until the bytes are rewritten.  With a journal attached, every
        step (staging copy, register, per-page PTE rewrite, data
        rewrite, release of the old mapping) is journaled, and the bytes
        are staged in a conventional-mapping scratch region that
        survives a crash — recovery rolls the switch forward to
        completion.  Without a journal the switch still works but a
        crash mid-way is unrecoverable (exactly the gap the journal
        closes).
        """
        if pu_order is None:
            # Toggle relative to the tensor's *current* mapping: whichever
            # of the two PU-bit orders it is not using now.
            default = pu_order_for(tensor.selection)
            flipped = (default[2], default[1], default[0])
            candidate = self._build_mapping(tensor.selection, pu_order=flipped)
            pu_order = flipped if candidate.fields != tensor.mapping.fields else default
        new_mapping = self._build_mapping(tensor.selection, pu_order=pu_order)
        if new_mapping.fields == tensor.mapping.fields:
            return tensor
        area = self.space.areas.get(tensor.va)
        if area is None:
            raise ValueError(f"tensor va {tensor.va:#x} is not mapped")
        nbytes = tensor.nbytes_padded
        n_pages = area.n_pages
        functional = self.controller.memory is not None

        txn = None
        if self.journal is not None:
            txn = self.journal.begin(
                "switch",
                va=tensor.va,
                old_map_id=tensor.map_id,
                nbytes=nbytes,
                n_pages=n_pages,
                page_bytes=area.page_bytes,
            )
        self._jcheckpoint("switch:begin")

        staging_va = None
        if functional:
            staging_va = self.space.mmap(nbytes, huge=True, map_id=0)
            self.write_virtual(staging_va, self.read_virtual(tensor.va, nbytes))
            self._jstep(txn, "staged", staging_va=staging_va, nbytes=nbytes)
        self._jcheckpoint("switch:staged")

        new_map_id = self.controller.table.register(new_mapping)
        self._jstep(txn, "registered", map_id=new_map_id)
        self._jcheckpoint("switch:registered")

        for index in range(n_pages):
            self.space.set_area_map_id(tensor.va, index, new_map_id)
            self._jstep(txn, "pte", index=index)
            self._jcheckpoint("switch:pte")

        if staging_va is not None:
            self.write_virtual(tensor.va, self.read_virtual(staging_va, nbytes))
            self._jstep(txn, "rewritten")
        self._jcheckpoint("switch:rewritten")

        self.controller.table.release(tensor.map_id)
        self._jstep(txn, "released-old", map_id=tensor.map_id)
        if staging_va is not None:
            self.space.munmap(staging_va)
        if txn is not None and self.journal is not None:
            self.journal.commit(txn)

        tensor.mapping = new_mapping
        tensor.map_id = new_map_id
        return tensor

    def migrate_pages(
        self,
        tensor: PimTensor,
        map_id: int,
        page_start: int = 0,
        page_count: Optional[int] = None,
        pu_order: Optional[Tuple[str, str, str]] = None,
    ) -> dict:
        """Migrate a contiguous huge-page range of *tensor* to the FACIL
        MapID *map_id* (the mapping-spec parameter the advisor
        recommends, not a table slot) — the adaptive controller's canary
        and promotion primitive.

        Unlike :meth:`switch_mapping`, the range may be a strict subset
        of the area, leaving the area *mixed*: some pages translate
        through the old mapping, some through the new.  The PTEs (read
        via ``AddressSpace.area_page_map_ids``) are the ground truth for
        the split.  The table-reference discipline is one reference per
        distinct MapID the area's pages use.

        With a journal attached the operation is a two-phase MIGRATE
        transaction: intent (old per-page MapIDs) is recorded first,
        each PTE flip is a journaled step, and the ``committed`` step —
        written only after the data rewrite — is the commit point.  A
        crash before it rolls the range back to the old mapping; at or
        after it, forward to the new one; never torn (see
        :func:`repro.core.journal._resolve_migrate`).
        """
        area = self.space.areas.get(tensor.va)
        if area is None:
            raise ValueError(f"tensor va {tensor.va:#x} is not mapped")
        if page_count is None:
            page_count = area.n_pages - page_start
        if page_count <= 0 or not (
            0 <= page_start and page_start + page_count <= area.n_pages
        ):
            raise ValueError(
                f"page range [{page_start}, {page_start + page_count}) outside "
                f"area of {area.n_pages} pages"
            )
        new_mapping = pim_optimized_mapping(
            org=self.org,
            chunk_rows=self.pim.chunk_rows,
            chunk_cols=self.pim.chunk_cols,
            dtype_bytes=self.pim.dtype_bytes,
            map_id=map_id,
            n_bits=ilog2(self.huge_page_bytes),
            pu_order=pu_order if pu_order is not None else pu_order_for(tensor.selection),
        )
        page_bytes = area.page_bytes
        nbytes = page_count * page_bytes
        range_va = tensor.va + page_start * page_bytes
        area_ids_before = self.space.area_page_map_ids(tensor.va)
        old_ids = area_ids_before[page_start : page_start + page_count]
        functional = self.controller.memory is not None

        txn = None
        if self.journal is not None:
            txn = self.journal.begin(
                "migrate",
                va=tensor.va,
                page_start=page_start,
                n_pages=page_count,
                page_bytes=page_bytes,
                nbytes=nbytes,
                old_page_map_ids=list(old_ids),
                area_map_ids_before=list(area_ids_before),
                facil_map_id=map_id,
            )
        self._jcheckpoint("migrate:begin")

        staging_va = None
        if functional:
            staging_va = self.space.mmap(nbytes, huge=True, map_id=0)
            self.write_virtual(staging_va, self.read_virtual(range_va, nbytes))
            self._jstep(txn, "staged", staging_va=staging_va, nbytes=nbytes)
        self._jcheckpoint("migrate:staged")

        new_map_id = self.controller.table.register(new_mapping)
        self._jstep(txn, "registered", map_id=new_map_id)
        self._jcheckpoint("migrate:registered")

        for index in range(page_start, page_start + page_count):
            self.space.set_area_map_id(tensor.va, index, new_map_id)
            self._jstep(txn, "page", index=index)
            self._jcheckpoint("migrate:page")

        if staging_va is not None:
            self.write_virtual(range_va, self.read_virtual(staging_va, nbytes))
            self._jstep(txn, "rewritten")
        self._jcheckpoint("migrate:rewritten")

        self._jstep(txn, "committed")
        self._jcheckpoint("migrate:committed")

        # Reference reconciliation: ids the migration erased from the
        # area lose their reference; when the new id was already present
        # the registration's extra reference is surplus.
        after = set(area_ids_before[:page_start]) | set(
            area_ids_before[page_start + page_count :]
        ) | {new_map_id}
        released = sorted(set(area_ids_before) - after)
        if new_map_id in area_ids_before:
            released.append(new_map_id)
        for released_id in released:
            self.controller.table.release(released_id)
            self._jstep(txn, "released", map_id=released_id)
            self._jcheckpoint("migrate:cleanup")
        if staging_va is not None:
            self.space.munmap(staging_va)
        self._jcheckpoint("migrate:cleanup")
        if txn is not None and self.journal is not None:
            self.journal.commit(txn)

        if all(pid == new_map_id for pid in self.space.area_page_map_ids(tensor.va)):
            tensor.mapping = new_mapping
            tensor.map_id = new_map_id
        return {
            "new_map_id": new_map_id,
            "pages": page_count,
            "released_map_ids": released,
        }

    def malloc(self, nbytes: int, huge: bool = False) -> int:
        """Plain allocation with the conventional mapping (MapID 0)."""
        # single-step mmap of the conventional mapping: no table
        # reference taken, nothing for recovery to undo
        return self.space.mmap(nbytes, huge=huge, map_id=0)  # lint: waive[JD001]

    def release_mapping(self, map_id: int) -> None:
        """Drop one reference to a registered mapping (see
        :meth:`PimTensor.free`)."""
        # single-step reference drop; crash-atomic on its own, and the
        # journaled free() path never routes through here
        self.controller.table.release(map_id)  # lint: waive[JD001]

    # -- virtual-address data path ----------------------------------------------

    def write_virtual(self, va: int, data: np.ndarray) -> None:
        """Store bytes at a virtual address: MMU translation, then the
        controller applies each page's MapID (paper Fig. 7b)."""
        data = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        offset = 0
        for pa, length, map_id in self.space.mmu.translate_range(va, len(data)):
            self.controller.write(pa, data[offset : offset + length], map_id)
            offset += length

    def read_virtual(self, va: int, nbytes: int) -> np.ndarray:
        """Load bytes from a virtual address (paper Fig. 7c)."""
        out = np.empty(nbytes, dtype=np.uint8)
        offset = 0
        for pa, length, map_id in self.space.mmu.translate_range(va, nbytes):
            out[offset : offset + length] = self.controller.read(pa, length, map_id)
            offset += length
        return out


class PimSystem:
    """Convenience bundle: DRAM + controller + OS + allocator.

    This is the one-line setup used by the examples and tests::

        system = PimSystem.build(org, pim)
        tensor = system.pimalloc(MatrixConfig(rows=64, cols=2048))
    """

    def __init__(
        self,
        org: DramOrganization,
        pim: PimConfig,
        huge_page_bytes: int = 2 << 20,
        functional: bool = True,
        ecc: bool = False,
        integrity: bool = False,
        journal: bool = False,
    ) -> None:
        from repro.os.page_table import HUGE_SHIFT

        if huge_page_bytes != 1 << HUGE_SHIFT:
            raise ValueError(
                f"PimSystem's OS substrate uses {1 << HUGE_SHIFT}-byte huge "
                "pages; for other page sizes use MemoryController/"
                "select_mapping directly (they are fully parametric)"
            )
        self.org = org
        self.pim = pim
        self.huge_page_bytes = huge_page_bytes
        memory = PhysicalMemory(org) if functional else None
        self.memory = memory
        # Reliability options (lazy imports keep the base stack free of
        # a repro.reliability dependency).
        ecc_engine = None
        if ecc:
            if not functional:
                raise ValueError("ECC protects functional storage; needs functional=True")
            from repro.reliability.ecc import EccEngine

            ecc_engine = EccEngine()
        self.ecc = ecc_engine
        table = None
        if integrity:
            from repro.core.mapping import CONVENTIONAL_SPEC, conventional_mapping
            from repro.reliability.integrity import ParityMappingTable

            table = ParityMappingTable(
                conventional_mapping(org, ilog2(huge_page_bytes), CONVENTIONAL_SPEC)
            )
        self.controller = MemoryController(
            org, page_bytes=huge_page_bytes, memory=memory, table=table, ecc=ecc_engine
        )
        total_pages = org.capacity_bytes >> PAGE_SHIFT
        huge_order = ilog2(huge_page_bytes) - PAGE_SHIFT
        self.buddy = BuddyAllocator(total_pages, max_order=max(huge_order, 9))
        self.space = AddressSpace(self.buddy)
        self.allocator = PimAllocator(
            org, pim, self.controller, self.space, huge_page_bytes
        )
        self.journal: Optional[MapJournal] = None
        if journal:
            self.journal = MapJournal()
            self.allocator.journal = self.journal

    @classmethod
    def build(
        cls,
        org: DramOrganization,
        pim: PimConfig,
        huge_page_bytes: int = 2 << 20,
        functional: bool = True,
        ecc: bool = False,
        integrity: bool = False,
        journal: bool = False,
    ) -> "PimSystem":
        return cls(org, pim, huge_page_bytes, functional, ecc, integrity, journal)

    def recover(self):
        """Replay the journal after a simulated crash (see
        :func:`repro.core.journal.recover`)."""
        from repro.core.journal import recover as _recover

        return _recover(self.allocator)

    def pimalloc(self, matrix: MatrixConfig) -> PimTensor:
        return self.allocator.pimalloc(matrix)
