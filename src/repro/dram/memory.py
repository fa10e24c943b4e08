"""Functional DRAM contents: per-bank byte arrays.

This is the *data* half of the DRAM simulator (the timing half lives in
:mod:`repro.dram.system`).  Each bank is a ``rows x row_bytes`` byte array,
allocated lazily, so end-to-end tests can store a matrix through one
address mapping and read it back through another — the core correctness
claim of FACIL.

Intended for the small/medium test geometries; a guard refuses to
instantiate functional storage for multi-GB organizations, where only the
timing models are meaningful.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.dram.address import DramCoord
from repro.dram.config import DramOrganization

__all__ = ["PhysicalMemory"]

_BankKey = Tuple[int, int, int]

#: Functional storage guard: organizations larger than this are timing-only.
_MAX_FUNCTIONAL_BYTES = 1 << 32  # 4 GiB


class PhysicalMemory:
    """Byte-accurate storage for every bank of an organization."""

    def __init__(self, org: DramOrganization):
        if org.capacity_bytes > _MAX_FUNCTIONAL_BYTES:
            raise ValueError(
                f"organization capacity {org.capacity_bytes} B exceeds the "
                f"functional-memory guard ({_MAX_FUNCTIONAL_BYTES} B); use a "
                "smaller geometry for functional simulation"
            )
        self.org = org
        self._banks: Dict[_BankKey, np.ndarray] = {}
        #: reliability hook (see :mod:`repro.reliability.faults`): when
        #: set, ``fault_hook.on_bank_access(key, array)`` runs on every
        #: bank access, letting a fault injector re-assert stuck-at bits
        #: before any reader (SoC, ECC scrubber, or PIM) sees the array.
        self.fault_hook = None

    # -- bank access -----------------------------------------------------

    def bank(self, channel: int, rank: int, bank: int) -> np.ndarray:
        """The ``(rows, row_bytes)`` byte array of one bank (lazily zeroed)."""
        key = (channel, rank, bank)
        array = self._banks.get(key)
        if array is None:
            if not (
                0 <= channel < self.org.n_channels
                and 0 <= rank < self.org.ranks_per_channel
                and 0 <= bank < self.org.banks_per_rank
            ):
                raise ValueError(f"bank key {key} out of range for {self.org}")
            array = np.zeros(
                (self.org.rows_per_bank, self.org.row_bytes), dtype=np.uint8
            )
            self._banks[key] = array
        if self.fault_hook is not None:
            self.fault_hook.on_bank_access(key, array)
        return array

    def row(self, channel: int, rank: int, bank: int, row: int) -> np.ndarray:
        """One DRAM row (what an activate brings into the row buffer)."""
        return self.bank(channel, rank, bank)[row]

    def touched_banks(self) -> Iterator[_BankKey]:
        """Keys of banks that have been materialized."""
        return iter(sorted(self._banks))

    # -- scalar access ------------------------------------------------------

    def read_byte(self, coord: DramCoord) -> int:
        coord.validate(self.org)
        row = self.row(coord.channel, coord.rank, coord.bank, coord.row)
        return int(row[coord.col * self.org.transfer_bytes + coord.offset])

    def write_byte(self, coord: DramCoord, value: int) -> None:
        coord.validate(self.org)
        row = self.row(coord.channel, coord.rank, coord.bank, coord.row)
        row[coord.col * self.org.transfer_bytes + coord.offset] = value

    # -- vectorised access ----------------------------------------------------

    def gather(
        self,
        channel: np.ndarray,
        rank: np.ndarray,
        bank: np.ndarray,
        index: np.ndarray,
        width: int = 1,
        head: int = 0,
        tail: int = 0,
    ) -> np.ndarray:
        """Read one run of *width* bytes per element of the coordinate
        arrays, at ``index * width`` in its bank (one byte per element by
        default).  The runs are returned end to end, less the first *head*
        and the last *tail* bytes."""
        rows = np.empty((len(index), width), dtype=np.uint8)
        for key, mask in self.by_bank(channel, rank, bank):
            rows[mask] = self.bank(*key).reshape(-1, width)[index[mask]]
        return rows.reshape(-1)[head : rows.size - tail]

    def scatter(
        self,
        channel: np.ndarray,
        rank: np.ndarray,
        bank: np.ndarray,
        index: np.ndarray,
        values: np.ndarray,
        width: int = 1,
        head: int = 0,
        tail: int = 0,
    ) -> None:
        """Write *values* over the runs :meth:`gather` reads with the same
        arguments.  The first *head* bytes of the first run and the last
        *tail* bytes of the last run keep what the bank holds."""
        rows = np.empty((len(index), width), dtype=np.uint8)
        rows.reshape(-1)[head : rows.size - tail] = values
        for key, mask in self.by_bank(channel, rank, bank):
            view = self.bank(*key).reshape(-1, width)
            if head and mask[0]:
                rows[0, :head] = view[index[0], :head]
            if tail and mask[-1]:
                rows[-1, width - tail :] = view[index[-1], width - tail :]
            view[index[mask]] = rows[mask]

    def by_bank(
        self, channel: np.ndarray, rank: np.ndarray, bank: np.ndarray
    ) -> Iterator[Tuple[_BankKey, np.ndarray]]:
        """Group coordinate arrays by bank: one ``(key, mask)`` pair per
        bank present, in ascending bank id.  The domain is tiny
        (total_banks), so one bincount pass beats a sort/hash unique."""
        bank_id = self._bank_ids(channel, rank, bank)
        counts = np.bincount(bank_id, minlength=self.org.total_banks)
        for key_id in np.nonzero(counts)[0]:
            yield self._key_from_id(int(key_id)), bank_id == key_id

    def _bank_ids(
        self, channel: np.ndarray, rank: np.ndarray, bank: np.ndarray
    ) -> np.ndarray:
        org = self.org
        return (
            channel * (org.ranks_per_channel * org.banks_per_rank)
            + rank * org.banks_per_rank
            + bank
        )

    def _key_from_id(self, key_id: int) -> _BankKey:
        org = self.org
        channel, rem = divmod(key_id, org.ranks_per_channel * org.banks_per_rank)
        rank, bank = divmod(rem, org.banks_per_rank)
        return (channel, rank, bank)
