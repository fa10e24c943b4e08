"""Crash-consistent MapID journaling for pimalloc (extension).

``pimalloc`` and ``PimTensor.free`` are *multi-step* mutations of shared
state: the controller's mapping table (a refcounted hardware resource),
the page table (MapID-carrying PTEs), and the buddy allocator.  A crash
between any two steps leaves that state half-mutated — a registered
MapID no region references (a leaked table slot), an unmapped region
whose mapping was never released, or a phase-switched region where some
huge pages translate through the new mapping and some through the old
(DReAM's live-remapping hazard).

:class:`MapJournal` is a write-ahead *intent* journal closing that hole:

* every mutating operation opens a transaction (:meth:`begin`) recording
  its intent **before** touching shared state;
* each completed step appends a redo/undo record (:meth:`step`);
* :meth:`checkpoint` marks the crash-injection sites between steps — a
  :class:`~repro.reliability.faults.FaultInjector` armed with
  ``schedule_crash(site)`` raises :class:`InjectedCrash` there;
* :func:`recover` replays uncommitted transactions after a crash:
  allocations roll **back** (undo), frees and phase switches roll
  **forward** (redo), so post-recovery state is always the state of some
  crash-free history.

The journal itself survives the crash by construction (a real
implementation puts it in a persistent region written before each step;
the simulation keeps it on the side of the :class:`PimSystem` whose
state models everything that persists).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pimalloc import PimAllocator

__all__ = [
    "CRASH_SITES",
    "MIGRATE_CRASH_SITES",
    "InjectedCrash",
    "JournalTxn",
    "MapJournal",
    "RecoveryAction",
    "RecoveryReport",
    "recover",
]


class InjectedCrash(RuntimeError):
    """A simulated process crash at a journal checkpoint.

    Raised by an armed fault injector's ``on_journal`` hook; everything
    the crashed operation had already done to shared state stays in
    place, exactly like a real kill -9 mid-syscall.
    """

    def __init__(self, site: str):
        self.site = site
        super().__init__(f"injected crash at journal site {site!r}")


#: Every checkpoint the allocator announces, in operation order.  The
#: crash campaign sweeps all of them.
CRASH_SITES = (
    "alloc:begin",
    "alloc:registered",
    "alloc:mapped",
    "free:begin",
    "free:unmapped",
    "switch:begin",
    "switch:staged",
    "switch:registered",
    "switch:pte",
    "switch:rewritten",
)

#: Checkpoints of the two-phase MIGRATE operation (adaptive remapping's
#: partial-range page migration).  Kept out of :data:`CRASH_SITES` so
#: the existing campaign sweep stays byte-identical; the migration
#: campaign sweeps these.  The commit point is the ``committed`` journal
#: step: a crash strictly before it rolls the migrated range **back** to
#: the old MapID, a crash at or after it rolls **forward** — recovery
#: never leaves the range torn between the two.
MIGRATE_CRASH_SITES = (
    "migrate:begin",
    "migrate:staged",
    "migrate:registered",
    "migrate:page",
    "migrate:rewritten",
    "migrate:committed",
    "migrate:cleanup",
)


@dataclass
class JournalTxn:
    """One journaled operation: declared intent plus completed steps."""

    txn_id: int
    op: str  # "alloc" | "free" | "switch"
    intent: Dict[str, Any]
    steps: List[Tuple[str, Dict[str, Any]]] = field(default_factory=list)
    committed: bool = False

    def step_names(self) -> List[str]:
        return [name for name, _ in self.steps]

    def find_step(self, name: str) -> Optional[Dict[str, Any]]:
        for step_name, detail in self.steps:
            if step_name == name:
                return detail
        return None

    def count_steps(self, name: str) -> int:
        return sum(1 for step_name, _ in self.steps if step_name == name)


class MapJournal:
    """Write-ahead intent journal over one allocator's mutations."""

    def __init__(self) -> None:
        self._txns: List[JournalTxn] = []
        self._next_id = 0
        #: reliability hook: ``fault_hook.on_journal(site)`` runs at every
        #: checkpoint and may raise :class:`InjectedCrash`.
        self.fault_hook: Optional[Any] = None

    # -- transaction lifecycle -----------------------------------------

    def begin(self, op: str, **intent: Any) -> JournalTxn:
        txn = JournalTxn(txn_id=self._next_id, op=op, intent=dict(intent))
        self._next_id += 1
        self._txns.append(txn)
        return txn

    def step(self, txn: JournalTxn, name: str, **detail: Any) -> None:
        if txn.committed:
            raise ValueError(f"txn {txn.txn_id} already committed")
        txn.steps.append((name, dict(detail)))

    def checkpoint(self, site: str) -> None:
        """A crash-injection site between journal steps."""
        if self.fault_hook is not None:
            self.fault_hook.on_journal(site)

    def commit(self, txn: JournalTxn) -> None:
        txn.committed = True

    # -- queries --------------------------------------------------------

    def uncommitted(self) -> List[JournalTxn]:
        return [txn for txn in self._txns if not txn.committed]

    def cursor(self) -> Tuple[int, int, int]:
        """Cheap progress fingerprint for the replay-diff oracle:
        ``(next txn id, live txns, uncommitted txns)``.  Two replays of
        the same workload must agree on all three at every barrier."""
        open_txns = sum(1 for txn in self._txns if not txn.committed)
        return (self._next_id, len(self._txns), open_txns)

    def transactions(self) -> List[JournalTxn]:
        return list(self._txns)

    def __len__(self) -> int:
        return len(self._txns)

    def truncate_committed(self) -> int:
        """Drop committed transactions (log compaction); returns how
        many were dropped."""
        before = len(self._txns)
        self._txns = [txn for txn in self._txns if not txn.committed]
        return before - len(self._txns)


@dataclass(frozen=True)
class RecoveryAction:
    """How one uncommitted transaction was resolved by replay."""

    txn_id: int
    op: str
    resolution: str  # "rolled-back" | "rolled-forward" | "no-op"
    detail: Dict[str, Any]


@dataclass
class RecoveryReport:
    """Outcome of one :func:`recover` replay."""

    actions: List[RecoveryAction] = field(default_factory=list)

    @property
    def rolled_back(self) -> int:
        return sum(1 for a in self.actions if a.resolution == "rolled-back")

    @property
    def rolled_forward(self) -> int:
        return sum(1 for a in self.actions if a.resolution == "rolled-forward")


def _undo_alloc(allocator: "PimAllocator", txn: JournalTxn) -> Dict[str, Any]:
    """Roll an interrupted allocation back to nothing."""
    detail: Dict[str, Any] = {}
    mapped = txn.find_step("mapped")
    registered = txn.find_step("registered")
    if mapped is not None:
        va = mapped["va"]
        if va in allocator.space.areas:
            allocator.space.munmap(va)
            detail["unmapped_va"] = va
    if registered is not None:
        allocator.controller.table.release(registered["map_id"])
        detail["released_map_id"] = registered["map_id"]
    return detail


def _redo_free(allocator: "PimAllocator", txn: JournalTxn) -> Dict[str, Any]:
    """Roll an interrupted free forward to completion."""
    detail: Dict[str, Any] = {}
    va = txn.intent["va"]
    map_id = txn.intent["map_id"]
    if txn.find_step("unmapped") is None and va in allocator.space.areas:
        allocator.space.munmap(va)
        detail["unmapped_va"] = va
    if txn.find_step("released") is None:
        allocator.controller.table.release(map_id)
        detail["released_map_id"] = map_id
    return detail


def _redo_switch(allocator: "PimAllocator", txn: JournalTxn) -> Dict[str, Any]:
    """Roll an interrupted phase switch forward (or back when it never
    registered the new mapping)."""
    detail: Dict[str, Any] = {}
    registered = txn.find_step("registered")
    staged = txn.find_step("staged")
    if registered is None:
        # Nothing downstream of staging happened: drop the staging copy
        # (if any) and leave the region exactly as it was.
        if staged is not None and staged["staging_va"] in allocator.space.areas:
            allocator.space.munmap(staged["staging_va"])
            detail["dropped_staging_va"] = staged["staging_va"]
        detail["kept_map_id"] = txn.intent["old_map_id"]
        return detail

    new_map_id = registered["map_id"]
    va = txn.intent["va"]
    nbytes = txn.intent["nbytes"]
    n_pages = txn.intent["n_pages"]
    page_bytes = txn.intent["page_bytes"]

    # (1) finish the PTE walk from wherever it stopped.
    done = txn.count_steps("pte")
    for index in range(done, n_pages):
        allocator.space.set_area_map_id(va, index, new_map_id)
    detail["ptes_completed"] = n_pages - done

    # (2) rewrite the bytes from the staging copy through the new
    # mapping (idempotent: rewriting identical bytes is harmless).
    if staged is not None and txn.find_step("rewritten") is None:
        data = allocator.read_virtual(staged["staging_va"], nbytes)
        allocator.write_virtual(va, data)
        detail["rewritten_bytes"] = nbytes
    if staged is not None and staged["staging_va"] in allocator.space.areas:
        allocator.space.munmap(staged["staging_va"])

    # (3) release exactly one reference to the old mapping.
    if txn.find_step("released-old") is None:
        allocator.controller.table.release(txn.intent["old_map_id"])
        detail["released_map_id"] = txn.intent["old_map_id"]
    detail["new_map_id"] = new_map_id
    return detail


def _resolve_migrate(allocator: "PimAllocator", txn: JournalTxn) -> Dict[str, Any]:
    """Resolve an interrupted partial-range page migration.

    The ``committed`` journal step is the commit point.  Before it the
    migration rolls **back**: every flipped PTE is restored to its
    recorded old MapID, the range's bytes are rewritten from the staging
    copy through the restored mapping, and the new mapping's table
    reference is dropped.  At or after it the migration rolls
    **forward**: the PTE walk is already complete (the step is only
    written after the data rewrite), so recovery just finishes the
    reference releases and drops the staging region.  Either way the
    range lands uniformly in one mapping — never torn.
    """
    detail: Dict[str, Any] = {}
    va = txn.intent["va"]
    page_start = txn.intent["page_start"]
    page_bytes = txn.intent["page_bytes"]
    nbytes = txn.intent["nbytes"]
    old_ids: List[int] = txn.intent["old_page_map_ids"]
    staged = txn.find_step("staged")
    registered = txn.find_step("registered")

    if registered is None:
        # The shared mapping table was never touched: drop the staging
        # copy (if any) and keep the range exactly as it was.
        if staged is not None and staged["staging_va"] in allocator.space.areas:
            allocator.space.munmap(staged["staging_va"])
            detail["dropped_staging_va"] = staged["staging_va"]
        detail["kept_map_ids"] = sorted(set(old_ids))
        return detail

    new_map_id = registered["map_id"]
    if txn.find_step("committed") is None:
        # -- roll back: restore flipped PTEs, then the bytes ------------
        flipped = [
            step_detail["index"]
            for step_name, step_detail in txn.steps
            if step_name == "page"
        ]
        for index in flipped:
            allocator.space.set_area_map_id(
                va, index, old_ids[index - page_start]
            )
        detail["ptes_restored"] = len(flipped)
        if staged is not None:
            data = allocator.read_virtual(staged["staging_va"], nbytes)
            allocator.write_virtual(va + page_start * page_bytes, data)
            detail["restored_bytes"] = nbytes
            if staged["staging_va"] in allocator.space.areas:
                allocator.space.munmap(staged["staging_va"])
        allocator.controller.table.release(new_map_id)
        detail["released_map_id"] = new_map_id
        detail["kept_map_ids"] = sorted(set(old_ids))
        return detail

    # -- roll forward: the range already reads through the new mapping --
    # Reference discipline (one table reference per distinct MapID the
    # area's pages use): ids the migration erased from the area lose
    # their reference, and when the new id was already present the
    # registration's extra reference is surplus.
    before = set(txn.intent["area_map_ids_before"])
    after = set(allocator.space.area_page_map_ids(va))
    planned = sorted(before - after)
    if new_map_id in before:
        planned.append(new_map_id)
    already = [
        step_detail["map_id"]
        for step_name, step_detail in txn.steps
        if step_name == "released"
    ]
    released = []
    for map_id in planned:
        if map_id in already:
            already.remove(map_id)
            continue
        allocator.controller.table.release(map_id)
        released.append(map_id)
    if staged is not None and staged["staging_va"] in allocator.space.areas:
        allocator.space.munmap(staged["staging_va"])
        detail["dropped_staging_va"] = staged["staging_va"]
    detail["released_map_ids"] = released
    detail["promoted_map_id"] = new_map_id
    return detail


def recover(allocator: "PimAllocator") -> RecoveryReport:
    """Replay the allocator's journal after a (simulated) crash.

    Uncommitted allocations are undone, uncommitted frees and phase
    switches are completed; committed transactions are untouched.  The
    replay is idempotent — recovering twice is a no-op the second time.
    """
    journal = allocator.journal
    if journal is None:
        raise ValueError("allocator has no journal attached")
    report = RecoveryReport()
    # Newest first: a later txn may depend on state older txns created,
    # but undo/redo of *uncommitted* txns never conflicts because the
    # allocator serializes mutations.
    for txn in reversed(journal.uncommitted()):
        if txn.op == "alloc":
            detail = _undo_alloc(allocator, txn)
            resolution = "rolled-back" if detail else "no-op"
        elif txn.op == "free":
            detail = _redo_free(allocator, txn)
            resolution = "rolled-forward" if detail else "no-op"
        elif txn.op == "switch":
            detail = _redo_switch(allocator, txn)
            resolution = (
                "rolled-forward" if "new_map_id" in detail else "rolled-back"
            )
        elif txn.op == "migrate":
            detail = _resolve_migrate(allocator, txn)
            resolution = (
                "rolled-forward" if "promoted_map_id" in detail else "rolled-back"
            )
        else:
            raise ValueError(f"journal holds unknown op {txn.op!r}")
        journal.commit(txn)
        report.actions.append(
            RecoveryAction(
                txn_id=txn.txn_id, op=txn.op, resolution=resolution, detail=detail
            )
        )
    return report
