"""The bounded KV block pool: placement, refcounts, and journaling.

The pool owns ``num_blocks`` fixed-size blocks.  In *placed* mode (a
:class:`~repro.core.pimalloc.PimSystem` is attached) the blocks are
carved from one contiguous arena allocated through ``pimalloc`` — the
mapping selector picks the arena's MapID from the KV token-row shape,
so each block is a whole number of chunk rows and PIM attention sweeps
stay chunk-aligned (``analysis.mapverify.verify_kv_blocks`` proves
this; :meth:`BlockPool.verify` runs it on the live arena).  In
bookkeeping mode (no system) the pool models capacity only, which is
what the serving scheduler needs.

Alloc and free are **journaled** through the pool's own write-ahead
:class:`~repro.core.journal.MapJournal` instance (separate from the
allocator's journal, whose :func:`~repro.core.journal.recover` only
understands alloc/free/switch ops).  A crash between the free-list pop
and the activation, or between the deref and the reclaim, is replayed
by :func:`recover_pool`: interrupted allocations roll **back**,
interrupted frees roll **forward** — the same convention as the MapID
journal, so no block refcount is ever leaked (the crash campaign's
``kvcache`` case sweeps every :data:`KV_CRASH_SITES` checkpoint).

:meth:`BlockPool.alloc_run` and :meth:`BlockPool.free_run` take or drop
a run of blocks in one transaction, through the same crash sites.
Every record names a run — a single-block operation writes a run of
one — so recovery has one path for both.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence

from repro.core.journal import MapJournal, RecoveryAction, RecoveryReport
from repro.core.selector import MatrixConfig
from repro.kvcache.block import (
    BLOCK_FREE,
    BLOCK_LIVE,
    BlockRef,
    KvBlock,
    KvPoolExhausted,
    SharedBlockWriteError,
    StaleBlockError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pimalloc import PimSystem, PimTensor

__all__ = ["KV_CRASH_SITES", "BlockPool", "KvSpec", "recover_pool"]

#: journal checkpoints inside the pool's alloc/free paths; the crash
#: campaign's ``kvcache`` case cycles through all of them.
KV_CRASH_SITES = (
    "kvalloc:begin",
    "kvalloc:taken",
    "kvfree:begin",
    "kvfree:deref",
)


@dataclass(frozen=True)
class KvSpec:
    """Shape of one KV token row and the block granularity.

    ``kv_dim`` is the per-token K+V vector width in elements (for a
    transformer: ``2 * head_dim * n_kv_heads`` folded across the layer
    slab the pool serves).  One block stores ``block_tokens`` rows.
    """

    block_tokens: int = 16
    kv_dim: int = 1024
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        if self.block_tokens <= 0:
            raise ValueError("block_tokens must be positive")
        if self.kv_dim <= 0:
            raise ValueError("kv_dim must be positive")
        if self.dtype_bytes <= 0:
            raise ValueError("dtype_bytes must be positive")

    def arena_matrix(self, num_blocks: int) -> MatrixConfig:
        """The pool arena as pimalloc sees it: one token row per matrix
        row, so the selector's padded leading dimension is the placed
        bytes-per-token."""
        return MatrixConfig(
            rows=num_blocks * self.block_tokens,
            cols=self.kv_dim,
            dtype_bytes=self.dtype_bytes,
        )

    @classmethod
    def for_model(cls, model, block_tokens: int = 16) -> "KvSpec":
        """Derive the token-row shape from an :class:`LlmConfig`."""
        return cls(
            block_tokens=block_tokens,
            kv_dim=2 * model.kv_dim,
            dtype_bytes=model.dtype_bytes,
        )


class BlockPool:
    """Bounded pool of KV blocks with refcounted, journaled alloc/free."""

    def __init__(
        self,
        num_blocks: int,
        spec: Optional[KvSpec] = None,
        system: Optional["PimSystem"] = None,
        journal: Optional[MapJournal] = None,
    ) -> None:
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        self.spec = spec if spec is not None else KvSpec()
        self.num_blocks = num_blocks
        self.block_tokens = self.spec.block_tokens
        self.journal = journal
        self.system = system
        self.arena: Optional["PimTensor"] = None
        self.block_bytes = self.spec.block_tokens * self.spec.kv_dim * self.spec.dtype_bytes
        if system is not None:
            self.arena = system.pimalloc(self.spec.arena_matrix(num_blocks))
            self.block_bytes = (
                self.spec.block_tokens * self.arena.selection.padded_row_bytes
            )
        page_bytes = system.huge_page_bytes if system is not None else self.block_bytes
        self.blocks: List[KvBlock] = [
            KvBlock(
                block_id=i,
                page_index=(i * self.block_bytes) // page_bytes,
                page_offset=(i * self.block_bytes) % page_bytes,
            )
            for i in range(num_blocks)
        ]
        self._free: Deque[int] = deque(range(num_blocks))
        #: cumulative counters
        self.allocs = 0
        self.frees = 0
        #: occupancy (used blocks) sampled at every alloc/free
        self.occupancy_samples: List[int] = [0]
        self.peak_occupancy = 0

    # -- journal plumbing --------------------------------------------------

    def _checkpoint(self, site: str) -> None:
        if self.journal is not None:
            self.journal.checkpoint(site)

    # -- queries -----------------------------------------------------------

    @property
    def used(self) -> int:
        return self.num_blocks - len(self._free)

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    def get(self, ref: BlockRef) -> KvBlock:
        """Resolve *ref*, enforcing the generation check — the read-side
        guarantee that no sequence ever observes a freed block."""
        block = self.blocks[ref.block_id]
        if block.generation != ref.generation or block.state != BLOCK_LIVE:
            raise StaleBlockError(
                f"block {ref.block_id} gen {ref.generation} was freed "
                f"(now gen {block.generation}, state {block.state})"
            )
        return block

    def check_writable(self, ref: BlockRef) -> KvBlock:
        """Resolve *ref* for a write: shared blocks are immutable."""
        block = self.get(ref)
        if block.ref_count > 1:
            raise SharedBlockWriteError(
                f"block {ref.block_id} is shared by {block.ref_count} "
                "holders; copy-on-write first"
            )
        return block

    def block_va(self, ref: BlockRef) -> int:
        """Virtual address of the block inside the placed arena."""
        if self.arena is None:
            raise ValueError("pool has no placed arena (bookkeeping mode)")
        self.get(ref)
        return self.arena.va + ref.block_id * self.block_bytes

    def _sample(self) -> None:
        used = self.used
        self.occupancy_samples.append(used)
        if used > self.peak_occupancy:
            self.peak_occupancy = used

    # -- alloc / free ------------------------------------------------------
    #
    # alloc and free keep their own bodies rather than running a run of
    # one: the KV manager calls them block by block on its per-token
    # path, which would pay the run code's list handling on every call.

    def alloc(self, now_ns: float = 0.0) -> KvBlock:
        """Take one block off the free list (journaled)."""
        if not self._free:
            raise KvPoolExhausted(
                f"all {self.num_blocks} KV blocks in use and none evictable"
            )
        txn = None
        if self.journal is not None:
            txn = self.journal.begin("kvalloc")
        self._checkpoint("kvalloc:begin")
        block_id = self._free.popleft()
        if txn is not None and self.journal is not None:
            self.journal.step(txn, "taken", block_ids=[block_id])
        self._checkpoint("kvalloc:taken")
        block = self.blocks[block_id]
        block.state = BLOCK_LIVE
        block.ref_count = 1
        block.tokens = 0
        block.last_use_ns = now_ns
        if txn is not None and self.journal is not None:
            self.journal.step(txn, "activated", block_ids=[block_id])
            self.journal.commit(txn)
        self.allocs += 1
        self._sample()
        return block

    def alloc_run(self, n: int, now_ns: float = 0.0) -> List[KvBlock]:
        """Take *n* blocks off the free list in one journaled
        transaction: the same blocks, in the same order, with the same
        counters and occupancy samples as *n* calls of :meth:`alloc`."""
        if n > len(self._free):
            raise KvPoolExhausted(
                f"a run of {n} KV blocks with only {len(self._free)} free"
            )
        if n <= 0:
            return []
        txn = None
        if self.journal is not None:
            txn = self.journal.begin("kvalloc")
        self._checkpoint("kvalloc:begin")
        block_ids = [self._free.popleft() for _ in range(n)]
        if txn is not None and self.journal is not None:
            self.journal.step(txn, "taken", block_ids=block_ids)
        self._checkpoint("kvalloc:taken")
        blocks = [self.blocks[block_id] for block_id in block_ids]
        for block in blocks:
            block.state = BLOCK_LIVE
            block.ref_count = 1
            block.tokens = 0
            block.last_use_ns = now_ns
        if txn is not None and self.journal is not None:
            self.journal.step(txn, "activated", block_ids=block_ids)
            self.journal.commit(txn)
        self.allocs += n
        used = self.used
        self.occupancy_samples.extend(range(used - n + 1, used + 1))
        if used > self.peak_occupancy:
            self.peak_occupancy = used
        return blocks

    def share(self, ref: BlockRef) -> KvBlock:
        """Add one holder (copy-on-write fork or prefix-tree insert)."""
        block = self.get(ref)
        # single atomic increment on a live block: a crash before it is
        # a crash before share() ran; there is no intermediate state
        block.ref_count += 1  # lint: waive[JD001]
        return block

    def free(self, ref: BlockRef, now_ns: float = 0.0) -> bool:
        """Drop one holder; reclaim at refcount zero (journaled).

        Returns True when the block actually returned to the free list.
        """
        block = self.get(ref)
        txn = None
        if self.journal is not None:
            txn = self.journal.begin(
                "kvfree", block_ids=[ref.block_id], generations=[ref.generation]
            )
        self._checkpoint("kvfree:begin")
        block.ref_count -= 1
        block.last_use_ns = now_ns
        if txn is not None and self.journal is not None:
            self.journal.step(txn, "deref", remaining=[block.ref_count])
        self._checkpoint("kvfree:deref")
        reclaimed = False
        if block.ref_count == 0:
            self._reclaim(block)
            reclaimed = True
            if txn is not None and self.journal is not None:
                self.journal.step(txn, "reclaimed", block_ids=[ref.block_id])
        if txn is not None and self.journal is not None:
            self.journal.commit(txn)
        self.frees += 1
        self._sample()
        return reclaimed

    def free_run(self, refs: Sequence[BlockRef], now_ns: float = 0.0) -> int:
        """Drop one holder of each of *refs* in one journaled
        transaction: every deref, then the reclaims in ref order, which
        leaves the pool, its counters and its occupancy samples as
        ``len(refs)`` calls of :meth:`free` would.  Returns how many
        blocks were reclaimed.  A run that names a block twice is
        refused before anything is journaled."""
        blocks = [self.get(ref) for ref in refs]
        block_ids = [ref.block_id for ref in refs]
        if len(set(block_ids)) != len(block_ids):
            raise ValueError(f"free run names a block twice: {block_ids}")
        if not blocks:
            return 0
        txn = None
        if self.journal is not None:
            txn = self.journal.begin(
                "kvfree",
                block_ids=block_ids,
                generations=[ref.generation for ref in refs],
            )
        self._checkpoint("kvfree:begin")
        for block in blocks:
            block.ref_count -= 1
            block.last_use_ns = now_ns
        if txn is not None and self.journal is not None:
            self.journal.step(
                txn, "deref", remaining=[block.ref_count for block in blocks]
            )
        self._checkpoint("kvfree:deref")
        used = self.used
        reclaimed: List[int] = []
        for block in blocks:
            if block.ref_count == 0:
                self._reclaim(block)
                reclaimed.append(block.block_id)
                used -= 1
            self.occupancy_samples.append(used)
        if txn is not None and self.journal is not None:
            if reclaimed:
                self.journal.step(txn, "reclaimed", block_ids=reclaimed)
            self.journal.commit(txn)
        self.frees += len(blocks)
        return len(reclaimed)

    def _reclaim(self, block: KvBlock) -> None:
        block.state = BLOCK_FREE
        block.generation += 1  # invalidate every outstanding ref
        block.tokens = 0
        self._free.append(block.block_id)

    # -- health ------------------------------------------------------------

    def audit(self) -> List[str]:
        """Internal-consistency violations (empty list = clean)."""
        violations: List[str] = []
        free_ids = list(self._free)
        if len(set(free_ids)) != len(free_ids):
            violations.append("free list holds duplicate block ids")
        for block_id in free_ids:
            block = self.blocks[block_id]
            if block.state != BLOCK_FREE or block.ref_count != 0:
                violations.append(
                    f"block {block_id} on free list but state={block.state} "
                    f"ref_count={block.ref_count}"
                )
        free_set = set(free_ids)
        for block in self.blocks:
            if block.block_id not in free_set:
                if block.state != BLOCK_LIVE or block.ref_count <= 0:
                    violations.append(
                        f"block {block.block_id} off the free list but "
                        f"state={block.state} ref_count={block.ref_count}"
                    )
        if self.used + len(self._free) != self.num_blocks:
            violations.append("used + free != num_blocks")
        if self.peak_occupancy > self.num_blocks:
            violations.append(
                f"peak occupancy {self.peak_occupancy} exceeds pool size "
                f"{self.num_blocks}"
            )
        return violations

    def refcounts(self) -> Dict[int, int]:
        """Live refcounts by block id (for audit reconciliation)."""
        return {
            b.block_id: b.ref_count for b in self.blocks if b.state == BLOCK_LIVE
        }

    def verify(self) -> List:
        """Run the MV010/MV011 KV placement rules on the placed arena."""
        if self.arena is None or self.system is None:
            return []
        from repro.analysis.mapverify import verify_kv_blocks

        return verify_kv_blocks(
            self.arena.mapping,
            self.system.org,
            self.system.pim,
            self.block_bytes,
            n_blocks=min(self.num_blocks, 2),
        )


def recover_pool(pool: BlockPool) -> RecoveryReport:
    """Replay the pool's journal after a (simulated) crash.

    Interrupted allocations roll back (the caller never received the
    ref, so a live-but-unowned block would be a leaked refcount);
    interrupted frees roll forward (the holder already dropped its
    ref).  Idempotent, like :func:`repro.core.journal.recover`.
    """
    journal = pool.journal
    if journal is None:
        raise ValueError("pool has no journal attached")
    report = RecoveryReport()
    for txn in reversed(journal.uncommitted()):
        detail: Dict[str, List[int]] = {}
        if txn.op == "kvalloc":
            taken = txn.find_step("taken")
            if taken is not None:
                activated = txn.find_step("activated") is not None
                # in reverse, so the appendlefts restore free-list order
                for block_id in reversed(taken["block_ids"]):
                    block = pool.blocks[block_id]
                    if activated:
                        # fully activated but the ref never escaped: undo
                        block.ref_count = 0
                    pool._reclaim(block)
                    pool._free.remove(block_id)
                    pool._free.appendleft(block_id)
                detail["returned_blocks"] = list(taken["block_ids"])
            resolution = "rolled-back" if detail else "no-op"
        elif txn.op == "kvfree":
            blocks = [pool.blocks[block_id] for block_id in txn.intent["block_ids"]]
            deref = txn.find_step("deref")
            if deref is None:
                # crash before the derefs: redo them
                for block in blocks:
                    block.ref_count -= 1
                detail["deref_blocks"] = list(txn.intent["block_ids"])
                remaining = [block.ref_count for block in blocks]
            else:
                remaining = deref["remaining"]
            if txn.find_step("reclaimed") is None:
                for block, left in zip(blocks, remaining):
                    if left == 0 and block.state == BLOCK_LIVE:
                        pool._reclaim(block)
                        detail.setdefault("reclaimed_blocks", []).append(block.block_id)
            resolution = "rolled-forward" if detail else "no-op"
        else:
            raise ValueError(f"KV journal holds unknown op {txn.op!r}")
        journal.commit(txn)
        report.actions.append(
            RecoveryAction(
                txn_id=txn.txn_id, op=txn.op, resolution=resolution, detail=detail
            )
        )
    pool._sample()
    return report
