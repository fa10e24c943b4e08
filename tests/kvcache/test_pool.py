"""Block pool: refcounts, generations, placement, journaled recovery."""

import pytest

from repro.core.journal import InjectedCrash, MapJournal
from repro.core.pimalloc import PimSystem
from repro.dram.config import lpddr5_organization
from repro.kvcache import (
    KV_CRASH_SITES,
    BlockPool,
    KvPoolExhausted,
    KvSpec,
    SharedBlockWriteError,
    StaleBlockError,
    recover_pool,
)
from repro.llm.model_config import LLAMA3_8B
from repro.pim.config import aim_config_for
from repro.reliability.faults import FaultInjector


class TestKvSpec:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            KvSpec(block_tokens=0)
        with pytest.raises(ValueError):
            KvSpec(kv_dim=-1)

    def test_arena_matrix_one_row_per_token(self):
        spec = KvSpec(block_tokens=16, kv_dim=512, dtype_bytes=2)
        matrix = spec.arena_matrix(num_blocks=8)
        assert matrix.rows == 8 * 16
        assert matrix.cols == 512
        assert matrix.dtype_bytes == 2

    def test_for_model_folds_k_and_v(self):
        spec = KvSpec.for_model(LLAMA3_8B, block_tokens=32)
        assert spec.block_tokens == 32
        assert spec.kv_dim == 2 * LLAMA3_8B.kv_dim
        assert spec.dtype_bytes == LLAMA3_8B.dtype_bytes


class TestAllocFree:
    def test_alloc_free_roundtrip(self):
        pool = BlockPool(4)
        block = pool.alloc()
        assert pool.used == 1
        assert block.ref_count == 1
        assert pool.free(block.ref)
        assert pool.used == 0
        assert pool.audit() == []

    def test_generation_invalidates_stale_refs(self):
        pool = BlockPool(2)
        block = pool.alloc()
        ref = block.ref
        pool.free(ref)
        with pytest.raises(StaleBlockError):
            pool.get(ref)
        # the reclaimed block carries a new generation
        assert pool.blocks[ref.block_id].generation == ref.generation + 1
        with pytest.raises(StaleBlockError):
            pool.free(ref)

    def test_exhaustion(self):
        pool = BlockPool(2)
        pool.alloc()
        pool.alloc()
        with pytest.raises(KvPoolExhausted):
            pool.alloc()

    def test_shared_blocks_refuse_writes(self):
        pool = BlockPool(2)
        block = pool.alloc()
        pool.share(block.ref)
        with pytest.raises(SharedBlockWriteError):
            pool.check_writable(block.ref)
        # first free drops a holder, second reclaims
        assert not pool.free(block.ref)
        assert pool.check_writable(block.ref) is block
        assert pool.free(block.ref)
        assert pool.used == 0

    def test_occupancy_tracking(self):
        pool = BlockPool(4)
        refs = [pool.alloc().ref for _ in range(3)]
        for ref in refs:
            pool.free(ref)
        assert pool.peak_occupancy == 3
        assert max(pool.occupancy_samples) == 3
        assert pool.allocs == 3 and pool.frees == 3

    def test_bookkeeping_mode_has_no_arena(self):
        pool = BlockPool(2)
        block = pool.alloc()
        with pytest.raises(ValueError, match="bookkeeping"):
            pool.block_va(block.ref)


class TestPlacedMode:
    @pytest.fixture(scope="class")
    def system(self):
        org = lpddr5_organization(bus_width_bits=256, capacity_gb=64)
        return PimSystem.build(org, aim_config_for(org), functional=False)

    def test_blocks_are_whole_chunk_rows(self, system):
        pool = BlockPool(8, KvSpec(block_tokens=16, kv_dim=1024), system=system)
        crb = system.pim.chunk_row_bytes
        assert pool.block_bytes % crb == 0
        assert pool.arena is not None

    def test_block_vas_are_disjoint_and_ordered(self, system):
        pool = BlockPool(4, KvSpec(block_tokens=16, kv_dim=1024), system=system)
        refs = [pool.alloc().ref for _ in range(4)]
        vas = [pool.block_va(r) for r in refs]
        assert vas == sorted(vas)
        assert all(b - a == pool.block_bytes for a, b in zip(vas, vas[1:]))

    def test_verify_passes_kv_placement_rules(self, system):
        pool = BlockPool(8, KvSpec(block_tokens=16, kv_dim=1024), system=system)
        assert pool.verify() == []


def crash_at(pool, site, action):
    injector = FaultInjector(seed=0)
    pool.journal.fault_hook = injector
    injector.schedule_crash(site)
    with pytest.raises(InjectedCrash):
        action()
    pool.journal.fault_hook = None


class TestCrashRecovery:
    def make_pool(self, num_blocks=4):
        return BlockPool(num_blocks, journal=MapJournal())

    @pytest.mark.parametrize("site", ["kvalloc:begin", "kvalloc:taken"])
    def test_interrupted_alloc_rolls_back(self, site):
        pool = self.make_pool()
        before = list(pool._free)
        crash_at(pool, site, pool.alloc)
        report = recover_pool(pool)
        assert len(report.actions) == 1
        assert report.rolled_forward == 0
        assert pool.used == 0
        assert list(pool._free) == before
        assert pool.audit() == []
        assert pool.journal.uncommitted() == []

    def test_interrupted_free_rolls_forward(self):
        pool = self.make_pool()
        block = pool.alloc()
        crash_at(pool, "kvfree:begin", lambda: pool.free(block.ref))
        report = recover_pool(pool)
        assert report.rolled_forward == 1
        assert pool.used == 0
        assert pool.audit() == []

    def test_crash_after_deref_still_reclaims(self):
        pool = self.make_pool()
        block = pool.alloc()
        crash_at(pool, "kvfree:deref", lambda: pool.free(block.ref))
        # the deref landed but the reclaim did not
        report = recover_pool(pool)
        assert report.rolled_forward == 1
        assert pool.used == 0
        assert pool.blocks[block.block_id].ref_count == 0
        assert pool.audit() == []

    def test_shared_free_crash_keeps_block_live(self):
        pool = self.make_pool()
        block = pool.alloc()
        pool.share(block.ref)
        crash_at(pool, "kvfree:deref", lambda: pool.free(block.ref))
        recover_pool(pool)
        # one holder remains: the block must survive recovery
        assert pool.get(block.ref).ref_count == 1
        assert pool.used == 1
        assert pool.audit() == []

    def test_recovery_is_idempotent(self):
        pool = self.make_pool()
        crash_at(pool, "kvalloc:taken", pool.alloc)
        recover_pool(pool)
        second = recover_pool(pool)
        assert second.actions == []
        assert pool.audit() == []

    def test_every_site_is_reachable(self):
        # each named crash site fires during normal pool traffic
        for site in KV_CRASH_SITES:
            pool = self.make_pool()
            held = pool.alloc().ref if site.startswith("kvfree") else None
            action = (lambda r=held: pool.free(r)) if held else pool.alloc
            crash_at(pool, site, action)
            recover_pool(pool)
            assert pool.audit() == []

    def test_requires_journal(self):
        with pytest.raises(ValueError, match="journal"):
            recover_pool(BlockPool(2))

    def test_unknown_op_rejected(self):
        pool = self.make_pool()
        pool.journal.begin("alloc", rows=1)  # a MapID op, not a KV op
        with pytest.raises(ValueError, match="unknown op"):
            recover_pool(pool)


def pool_state(pool, generations=True):
    """Everything recovery must restore: free-list order, then each
    block's state, refcount and (optionally) generation."""
    blocks = [
        (b.state, b.ref_count) + ((b.generation,) if generations else ())
        for b in pool.blocks
    ]
    return list(pool._free), blocks


def churned_pool(num_blocks=8):
    """A journaled pool whose free list is out of id order: blocks
    0..5 taken, then 4, 1 and 3 returned."""
    pool = BlockPool(num_blocks, journal=MapJournal())
    refs = [pool.alloc().ref for _ in range(6)]
    for index in (4, 1, 3):
        pool.free(refs[index])
    live = [refs[index] for index in (0, 2, 5)]
    return pool, live


class TestBlockRuns:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_alloc_run_matches_single_allocs(self, n):
        run_pool, _ = churned_pool()
        single_pool, _ = churned_pool()
        run = run_pool.alloc_run(n, now_ns=5.0)
        singles = [single_pool.alloc(now_ns=5.0) for _ in range(n)]
        assert [b.block_id for b in run] == [b.block_id for b in singles]
        assert pool_state(run_pool) == pool_state(single_pool)
        assert run_pool.occupancy_samples == single_pool.occupancy_samples
        assert run_pool.peak_occupancy == single_pool.peak_occupancy
        assert run_pool.allocs == single_pool.allocs
        # one transaction for the whole run
        assert len(run_pool.journal) == len(single_pool.journal) - n + 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_free_run_matches_single_frees(self, n):
        run_pool, run_live = churned_pool()
        single_pool, single_live = churned_pool()
        run_pool.share(run_live[1])
        single_pool.share(single_live[1])
        reclaimed = run_pool.free_run(run_live[:n], now_ns=7.0)
        singles = [single_pool.free(ref, now_ns=7.0) for ref in single_live[:n]]
        assert reclaimed == sum(singles)
        assert pool_state(run_pool) == pool_state(single_pool)
        assert run_pool.occupancy_samples == single_pool.occupancy_samples
        assert run_pool.frees == single_pool.frees

    def test_exhausted_run_takes_nothing(self):
        pool, _ = churned_pool()
        before = pool_state(pool)
        with pytest.raises(KvPoolExhausted):
            pool.alloc_run(pool.free_blocks + 1)
        assert pool_state(pool) == before

    def test_free_run_naming_a_block_twice_is_refused(self):
        pool, live = churned_pool()
        pool.share(live[0])
        before, journaled = pool_state(pool), len(pool.journal)
        with pytest.raises(ValueError, match="twice"):
            pool.free_run([live[0], live[1], live[0]])
        assert pool_state(pool) == before
        assert len(pool.journal) == journaled

    def test_empty_runs_journal_nothing(self):
        pool, _ = churned_pool()
        journaled = len(pool.journal)
        assert pool.alloc_run(0) == []
        assert pool.free_run([]) == 0
        assert len(pool.journal) == journaled

    def test_single_block_ops_write_one_element_runs(self):
        pool = BlockPool(2, journal=MapJournal())
        ref = pool.alloc().ref
        pool.free(ref)
        alloc_txn, free_txn = pool.journal.transactions()
        assert alloc_txn.find_step("taken") == {"block_ids": [ref.block_id]}
        assert free_txn.intent == {
            "block_ids": [ref.block_id], "generations": [ref.generation],
        }
        assert free_txn.find_step("deref") == {"remaining": [0]}
        assert free_txn.find_step("reclaimed") == {"block_ids": [ref.block_id]}


ALLOC_SITES = [s for s in KV_CRASH_SITES if s.startswith("kvalloc")]
FREE_SITES = [s for s in KV_CRASH_SITES if s.startswith("kvfree")]


class TestBlockRunCrashRecovery:
    """Every KV crash site, on runs of 1-4 blocks: an interrupted
    allocation leaves the pool as it was before the run (the blocks it
    took come back with a new generation, as a rolled-back single
    allocation's does), an interrupted free as the run's single frees
    would, and the audit is clean."""

    def test_sites_split_between_the_two_ops(self):
        assert sorted(ALLOC_SITES + FREE_SITES) == sorted(KV_CRASH_SITES)

    @pytest.mark.parametrize("site", ALLOC_SITES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_interrupted_alloc_run_rolls_back(self, site, n):
        pool, _ = churned_pool()
        before = pool_state(pool, generations=False)
        crash_at(pool, site, lambda: pool.alloc_run(n))
        report = recover_pool(pool)
        assert report.rolled_forward == 0
        assert report.rolled_back == (1 if site == "kvalloc:taken" else 0)
        assert pool_state(pool, generations=False) == before
        assert pool.audit() == []
        assert recover_pool(pool).actions == []

    @pytest.mark.parametrize("site", FREE_SITES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("shared", [False, True])
    def test_interrupted_free_run_rolls_forward(self, site, n, shared):
        pool, live = churned_pool()
        twin, twin_live = churned_pool()
        extra = [pool.alloc().ref]
        twin_extra = [twin.alloc().ref]
        refs, twin_refs = (live + extra)[:n], (twin_live + twin_extra)[:n]
        middle = n // 2
        if shared:
            # a block inside the run has a second holder: it stays live
            pool.share(refs[middle])
            twin.share(twin_refs[middle])
        crash_at(pool, site, lambda: pool.free_run(refs))
        report = recover_pool(pool)
        for ref in twin_refs:
            twin.free(ref)
        assert report.rolled_back == 0
        assert pool_state(pool) == pool_state(twin)
        assert pool.audit() == []
        if shared:
            assert pool.get(refs[middle]).ref_count == 1
        assert recover_pool(pool).actions == []
