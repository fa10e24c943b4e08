"""FACIL's augmented memory-controller frontend (paper §V-B, Fig. 12).

A conventional controller frontend applies one fixed PA-to-DA mapping.
FACIL replaces it with a small *mapping table*: MapID 0 is the SoC's
default mapping and each additional entry is one PIM-optimized mapping.
Because every mapping is a bit permutation with identical field widths,
the hardware realization is an array of N-to-1 multiplexers — one per DRAM
address bit — selecting which physical-address bit feeds it.
:meth:`MemoryController.mux_array` exposes exactly that view.

The controller also owns the functional data path: reads and writes take a
``(physical address, MapID)`` pair — as delivered by the page-table walk —
and move bytes to/from the per-bank arrays of a :class:`PhysicalMemory`.
Like the hardware, which muxes only the bits above the transfer offset,
they translate once per 32-byte transfer and move whole transfers: every
mapping keeps the transfer offset in the PA LSBs (verifier rule MV012).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.reliability.ecc import EccEngine

from repro.core.bitfield import ilog2
from repro.core.mapping import (
    AddressMapping,
    CONVENTIONAL_SPEC,
    Field,
    conventional_mapping,
)
from repro.dram.address import DramCoord
from repro.dram.config import DramOrganization
from repro.dram.memory import PhysicalMemory

__all__ = ["MappingTable", "MemoryController", "MuxSpec"]

CONVENTIONAL_MAP_ID = 0

#: Chunk size for vectorised byte moves, bounding temporary memory.
_MOVE_CHUNK = 1 << 22


@dataclass(frozen=True)
class MuxSpec:
    """Hardware view of one DRAM-address bit: which PA bit each MapID
    selects (paper Fig. 12)."""

    field: str
    bit: int
    source_by_map_id: Tuple[int, ...]

    @property
    def fan_in(self) -> int:
        """Distinct PA sources — the N of this bit's N-to-1 mux."""
        return len(set(self.source_by_map_id))


class MappingTable:
    """The controller's table of PA-to-DA mappings, indexed by MapID.

    Entry 0 is always the conventional mapping.  Registering an equal
    mapping twice returns the existing MapID with its reference count
    bumped, so the table stays as small as the number of *distinct*
    mappings in use (the paper bounds this at ``max(MapID)+1``, 14 in the
    LPDDR5 worst case).  :meth:`release` drops a reference; a slot whose
    count reaches zero is recycled by later registrations, so long-lived
    systems with allocation churn never exhaust the table.
    """

    def __init__(self, conventional: AddressMapping, max_entries: int = 16) -> None:
        self._entries: List[Optional[AddressMapping]] = [conventional]
        self._refcounts: List[int] = [1]
        self._max_entries = max_entries

    def __len__(self) -> int:
        """Number of live (registered, unreleased) entries."""
        return sum(entry is not None for entry in self._entries)

    def __getitem__(self, map_id: int) -> AddressMapping:
        if not 0 <= map_id < len(self._entries):
            raise KeyError(f"MapID {map_id} not registered")
        entry = self._entries[map_id]
        if entry is None:
            raise KeyError(f"MapID {map_id} was released")
        return entry

    @property
    def conventional(self) -> AddressMapping:
        return self._entries[CONVENTIONAL_MAP_ID]

    def entries(self) -> Sequence[AddressMapping]:
        """Slot-ordered view, one entry per MapID.  Released slots report
        the conventional mapping (a free mux may route anything; routing
        MapID 0 keeps the hardware view well-defined)."""
        conventional = self.conventional
        return tuple(
            entry if entry is not None else conventional
            for entry in self._entries
        )

    def refcount(self, map_id: int) -> int:
        self[map_id]  # raises KeyError for dead slots
        return self._refcounts[map_id]

    def register(self, mapping: AddressMapping) -> int:
        """Add *mapping* (if new) and return its MapID.

        Every ``register`` must be paired with a :meth:`release` once the
        last region using the mapping is gone.
        """
        if mapping.n_bits != self.conventional.n_bits:
            raise ValueError(
                f"mapping covers {mapping.n_bits} bits; table expects "
                f"{self.conventional.n_bits}"
            )
        for map_id, existing in enumerate(self._entries):
            if existing is not None and existing.fields == mapping.fields:
                self._refcounts[map_id] += 1
                return map_id
        for map_id, existing in enumerate(self._entries):
            if existing is None:
                self._install(map_id, mapping)
                return map_id
        if len(self._entries) >= self._max_entries:
            raise ValueError(
                f"mapping table full ({self._max_entries} entries); FACIL "
                "bounds the table by the MapID formulation"
            )
        self._entries.append(None)
        self._refcounts.append(0)
        map_id = len(self._entries) - 1
        self._install(map_id, mapping)
        return map_id

    def _install(self, map_id: int, mapping: AddressMapping) -> None:
        """Write *mapping* into a free slot (subclass hook point)."""
        self._entries[map_id] = mapping
        self._refcounts[map_id] = 1

    def live_ids(self) -> Tuple[int, ...]:
        """MapIDs of live (registered, unreleased) slots, slot order."""
        return tuple(
            map_id
            for map_id, entry in enumerate(self._entries)
            if entry is not None
        )

    def refcounts(self) -> Dict[int, int]:
        """Live MapID -> reference count (the crash-recovery audit's
        ground truth: must equal the number of live regions per MapID,
        plus the conventional mapping's pin)."""
        return {
            map_id: self._refcounts[map_id]
            for map_id, entry in enumerate(self._entries)
            if entry is not None
        }

    def release(self, map_id: int) -> None:
        """Drop one reference to *map_id*; free the slot at zero.

        MapID 0 (the conventional mapping) is pinned and never released.
        """
        if map_id == CONVENTIONAL_MAP_ID:
            return
        self[map_id]  # raises KeyError for unknown/already-freed ids
        self._refcounts[map_id] -= 1
        if self._refcounts[map_id] <= 0:
            self._entries[map_id] = None
            self._refcounts[map_id] = 0


class MemoryController:
    """Frontend translation plus the functional data path.

    Args:
        org: DRAM organization being controlled.
        page_bytes: huge-page size; mappings cover its offset bits, and
            the page frame number supplies the DRAM row MSBs.
        table: mapping table (created with the default conventional
            mapping when omitted).
        memory: functional byte store; omit for translation-only use.
        ecc: optional :class:`repro.reliability.ecc.EccEngine`; when
            present every functional write re-protects the touched
            8-byte words and every read scrubs them first (correcting
            single-bit flips, raising on double-bit errors).
    """

    def __init__(
        self,
        org: DramOrganization,
        page_bytes: int = 2 << 20,
        table: Optional[MappingTable] = None,
        memory: Optional[PhysicalMemory] = None,
        ecc: Optional["EccEngine"] = None,
    ) -> None:
        self.org = org
        self.page_bytes = page_bytes
        self.page_bits = ilog2(page_bytes)
        if table is None:
            table = MappingTable(
                conventional_mapping(org, self.page_bits, CONVENTIONAL_SPEC)
            )
        if table.conventional.n_bits != self.page_bits:
            raise ValueError("mapping table bit width does not match page size")
        self.table = table
        self.memory = memory
        self.ecc = ecc
        self._row_bits_in_page = table.conventional.row_bits
        self._offset_positions = tuple(range(org.offset_bits))
        for mapping in table.entries():
            if mapping.row_bits != self._row_bits_in_page:
                raise ValueError(
                    "all mappings over one organization must agree on the "
                    "in-page row width"
                )
        #: optional telemetry MetricsRegistry (duck-typed — the core
        #: layer never imports the telemetry package)
        self.metrics: Optional[object] = None
        self._page_last_map_id: Dict[int, int] = {}
        self._page_switch_counts: Dict[int, int] = {}

    # -- telemetry -----------------------------------------------------------

    def attach_metrics(self, registry: object) -> None:
        """Count translations and per-page MapID-mux switches into
        *registry* (a :class:`repro.telemetry.MetricsRegistry`)."""
        self.metrics = registry

    def _note_translations(
        self, map_id: int, pages: Sequence[int], n_translations: int
    ) -> None:
        registry = self.metrics
        if registry is None:
            return
        registry.counter(  # type: ignore[attr-defined]
            "controller_translations_total",
            "PA-to-DA translations by MapID",
            labelnames=("map_id",),
        ).inc(n_translations, map_id=str(map_id))
        switches = 0
        for page in pages:
            last = self._page_last_map_id.get(page)
            if last is not None and last != map_id:
                switches += 1
                self._page_switch_counts[page] = (
                    self._page_switch_counts.get(page, 0) + 1
                )
            self._page_last_map_id[page] = map_id
        if switches:
            registry.counter(  # type: ignore[attr-defined]
                "controller_mapid_mux_switches_total",
                "per-page MapID mux reconfigurations",
            ).inc(switches)

    def finalize_metrics(self) -> None:
        """Publish the per-page switch distribution (call at run end)."""
        registry = self.metrics
        if registry is None:
            return
        histogram = registry.histogram(  # type: ignore[attr-defined]
            "controller_mapid_switches_per_page",
            "MapID-mux switches observed per page",
            buckets=(0, 1, 2, 5, 10, 20, 50, 100),
        )
        for page in sorted(self._page_switch_counts):
            histogram.observe(self._page_switch_counts[page])
        registry.gauge(  # type: ignore[attr-defined]
            "controller_pages_tracked", "pages seen by the MapID mux"
        ).set(len(self._page_last_map_id))

    # -- translation -----------------------------------------------------

    @property
    def rows_per_page(self) -> int:
        return 1 << self._row_bits_in_page

    def translate(self, pa: int, map_id: int = CONVENTIONAL_MAP_ID) -> DramCoord:
        """Full PA-to-DA translation: in-page mapping per MapID, page frame
        number as the row MSBs."""
        if pa < 0:
            raise ValueError(f"pa {pa:#x} is negative")
        mapping = self.table[map_id]
        page_index, page_offset = divmod(pa, self.page_bytes)
        if self.metrics is not None:
            self._note_translations(map_id, (page_index,), 1)
        coord = mapping.decode(page_offset)
        row = (page_index << self._row_bits_in_page) | coord.row
        if row >= self.org.rows_per_bank:
            raise ValueError(
                f"pa {pa:#x} maps to row {row}, beyond the organization's "
                f"{self.org.rows_per_bank} rows per bank"
            )
        return DramCoord(
            channel=coord.channel,
            rank=coord.rank,
            bank=coord.bank,
            row=row,
            col=coord.col,
            offset=coord.offset,
        )

    def translate_array(
        self, pas: np.ndarray, map_id: int = CONVENTIONAL_MAP_ID
    ) -> Dict[str, np.ndarray]:
        """Vectorised :meth:`translate`; returns field arrays, with ``row``
        already including the page-frame MSBs."""
        pas = np.asarray(pas, dtype=np.int64)
        mapping = self.table[map_id]
        page_index = pas >> np.int64(self.page_bits)
        if self.metrics is not None:
            self._note_translations(
                map_id,
                [int(p) for p in np.unique(page_index)],
                int(pas.size),
            )
        fields = mapping.decode_array(pas & np.int64(self.page_bytes - 1))
        fields[Field.ROW] = fields[Field.ROW] | (
            page_index << np.int64(self._row_bits_in_page)
        )
        return fields

    # -- hardware view ------------------------------------------------------

    def mux_array(self) -> List[MuxSpec]:
        """The Fig. 12 multiplexer array: for each DRAM address bit, the PA
        bit each registered MapID routes into it."""
        specs: List[MuxSpec] = []
        entries = self.table.entries()
        reference = entries[0]
        for fname in (
            Field.CHANNEL,
            Field.RANK,
            Field.BANK,
            Field.ROW,
            Field.COL,
            Field.OFFSET,
        ):
            for bit_index in range(reference.field_width(fname)):
                sources = tuple(
                    mapping.positions(fname)[bit_index] for mapping in entries
                )
                specs.append(
                    MuxSpec(field=fname, bit=bit_index, source_by_map_id=sources)
                )
        return specs

    # -- functional data path ---------------------------------------------------

    def _require_memory(self) -> PhysicalMemory:
        if self.memory is None:
            raise RuntimeError(
                "controller has no functional memory attached (timing-only)"
            )
        return self.memory

    def _check_range(self, pa: int, nbytes: int) -> None:
        capacity = self.org.capacity_bytes
        if pa < 0 or pa + nbytes > capacity:
            raise ValueError(
                f"physical range [{pa:#x}, {pa + nbytes:#x}) is outside the "
                f"DRAM's [0, {capacity:#x})"
            )

    def _transfers(
        self, lo: int, hi: int, map_id: int
    ) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], int, int]:
        """Translate each transfer covering PA range ``[lo, hi)`` once.

        Returns the transfers' ``(channel, rank, bank, slot)`` arrays,
        where *slot* indexes the bank viewed as rows of one transfer,
        plus the bytes of the first transfer before *lo* and of the last
        transfer after *hi*.  Sound only because the mapping keeps the
        transfer offset in the PA LSBs (verifier rule MV012), which
        every builder does and this checks.
        """
        if self.table[map_id].positions(Field.OFFSET) != self._offset_positions:
            raise ValueError(
                f"MapID {map_id}: the offset field is not PA bits "
                f"[0, {self.org.offset_bits}) LSB first, so bytes cannot move "
                "as whole transfers"
            )
        step = self.org.transfer_bytes
        first, last = lo // step, -(-hi // step)
        fields = self.translate_array(
            np.arange(first, last, dtype=np.int64) * step, map_id
        )
        slot = fields[Field.ROW] * (self.org.row_bytes // step) + fields[Field.COL]
        coords = (fields[Field.CHANNEL], fields[Field.RANK], fields[Field.BANK], slot)
        return coords, lo - first * step, last * step - hi

    def write(self, pa: int, data: np.ndarray, map_id: int = CONVENTIONAL_MAP_ID) -> None:
        """Store *data* (a byte array) starting at physical address *pa*,
        routed through the MapID's PA-to-DA mapping."""
        memory = self._require_memory()
        data = np.frombuffer(bytes(data), dtype=np.uint8) if isinstance(
            data, (bytes, bytearray)
        ) else np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        self._check_range(pa, len(data))
        for start in range(0, len(data), _MOVE_CHUNK):
            stop = min(start + _MOVE_CHUNK, len(data))
            coords, head, tail = self._transfers(pa + start, pa + stop, map_id)
            memory.scatter(
                *coords, data[start:stop], self.org.transfer_bytes, head, tail
            )
            if self.ecc is not None:
                self.ecc.protect(memory, *coords, head, tail)

    def read(
        self, pa: int, nbytes: int, map_id: int = CONVENTIONAL_MAP_ID
    ) -> np.ndarray:
        """Load *nbytes* starting at physical address *pa* through the
        MapID's mapping; returns a byte array."""
        memory = self._require_memory()
        self._check_range(pa, nbytes)
        out = np.empty(nbytes, dtype=np.uint8)
        for start in range(0, nbytes, _MOVE_CHUNK):
            stop = min(start + _MOVE_CHUNK, nbytes)
            coords, head, tail = self._transfers(pa + start, pa + stop, map_id)
            if self.ecc is not None:
                # Scrub + gather in one bank access: the returned bytes
                # are corrected in flight, as real SECDED read logic is.
                out[start:stop] = self.ecc.fetch(memory, *coords, head, tail)
            else:
                out[start:stop] = memory.gather(
                    *coords, self.org.transfer_bytes, head, tail
                )
        return out
