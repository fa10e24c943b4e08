"""KvCacheManager: admission, sharing, CoW, eviction, preemption, audit."""

import pytest

from repro.kvcache import (
    BlockPool,
    KvCacheManager,
    KvPoolExhausted,
    KvSpec,
)
from repro.kvcache.block import KvCacheError, SharedBlockWriteError

B = 4  # block_tokens used throughout


def make_kv(num_blocks=16, prefix_sharing=True):
    pool = BlockPool(num_blocks, KvSpec(block_tokens=B, kv_dim=64))
    return KvCacheManager(pool, prefix_sharing=prefix_sharing)


class TestAdmission:
    def test_cold_begin_allocates_everything(self):
        kv = make_kv()
        adm = kv.begin(seq_id=1, conv_key=7, total_tokens=10)
        assert adm.cached_tokens == 0
        assert adm.recompute_tokens == 10
        assert adm.new_blocks == 3  # ceil(10 / 4)
        assert kv.audit() == []

    def test_second_turn_hits_published_prefix(self):
        kv = make_kv()
        kv.begin(1, conv_key=7, total_tokens=10)
        kv.commit(1, 10)
        kv.release(1, retain=True)
        # turn 2 re-enters with the grown context
        adm = kv.begin(2, conv_key=7, total_tokens=14)
        assert adm.cached_tokens == 8  # the two full blocks of turn 1
        assert adm.recompute_tokens == 6
        assert kv.prefix_hit_rate > 0
        kv.commit(2, 6)
        kv.release(2)
        assert kv.audit() == []

    def test_sharing_disabled_never_hits(self):
        kv = make_kv(prefix_sharing=False)
        kv.begin(1, conv_key=7, total_tokens=12)
        kv.commit(1, 12)
        kv.release(1, retain=True)
        adm = kv.begin(2, conv_key=7, total_tokens=12)
        assert adm.cached_tokens == 0
        assert kv.prefix_hit_tokens == 0

    def test_different_conversations_do_not_share(self):
        kv = make_kv()
        kv.begin(1, conv_key=7, total_tokens=8)
        kv.commit(1, 8)
        kv.release(1, retain=True)
        adm = kv.begin(2, conv_key=8, total_tokens=8)
        assert adm.cached_tokens == 0

    def test_failed_begin_holds_nothing(self):
        kv = make_kv(num_blocks=2)
        with pytest.raises(KvPoolExhausted):
            kv.begin(1, conv_key=7, total_tokens=100)
        assert kv.pool.used == 0
        assert kv.live_sequences() == 0
        assert kv.audit() == []

    def test_duplicate_seq_id_rejected(self):
        kv = make_kv()
        kv.begin(1, conv_key=None, total_tokens=4)
        with pytest.raises(ValueError, match="already admitted"):
            kv.begin(1, conv_key=None, total_tokens=4)


class TestGrowth:
    def test_commit_needs_capacity(self):
        kv = make_kv()
        kv.begin(1, conv_key=None, total_tokens=4)
        with pytest.raises(KvCacheError, match="capacity"):
            kv.commit(1, 4 + 1)

    def test_decode_growth_allocates_on_block_boundary(self):
        kv = make_kv()
        kv.begin(1, conv_key=None, total_tokens=4)
        kv.commit(1, 4)
        used = kv.pool.used
        kv.ensure_capacity(1, 1)
        assert kv.pool.used == used + 1
        kv.commit(1, 1)
        assert kv.audit() == []

    def test_failed_growth_rolls_back_additions(self):
        kv = make_kv(num_blocks=2)
        kv.begin(1, conv_key=None, total_tokens=4)
        kv.commit(1, 4)
        with pytest.raises(KvPoolExhausted):
            kv.ensure_capacity(1, 3 * B)
        assert kv.pool.used == 1  # only the original block
        assert kv.audit() == []


class TestCommitPath:
    """The one-pass commit: write guard, capacity check, promotion."""

    def test_commit_into_fork_shared_tail_is_refused(self):
        kv = make_kv()
        kv.begin(1, conv_key=None, total_tokens=6)
        kv.commit(1, 6)
        kv.fork(1, 2)
        # no ensure_capacity: the partial tail is still shared
        with pytest.raises(SharedBlockWriteError):
            kv.commit(2, 1)
        assert kv._seqs[2].tokens == 6
        with pytest.raises(SharedBlockWriteError):
            kv.commit(1, 1)
        assert kv._seqs[1].tokens == 6
        assert kv.audit() == []

    def test_one_token_commit_past_capacity_is_refused(self):
        kv = make_kv()
        kv.begin(1, conv_key=None, total_tokens=B)
        kv.commit(1, B)
        with pytest.raises(KvCacheError, match="capacity"):
            kv.commit(1, 1)
        assert kv._seqs[1].tokens == B
        assert kv.audit() == []

    def test_fork_holds_full_block_back_until_released(self):
        kv = make_kv(num_blocks=8)
        # a fork's CoW copy publishes block 0 of conversation 7 first, so
        # the parent's own full copy stays private (key already cached)
        kv.begin(1, conv_key=7, total_tokens=B - 1)
        kv.commit(1, B - 1)
        kv.fork(1, 2)
        kv.ensure_capacity(2, 1)
        kv.commit(2, 1)
        kv.release(2, retain=False)
        kv.ensure_capacity(1, 1)
        kv.commit(1, 1)
        parent = kv._seqs[1]
        full = parent.private[0]
        assert parent.shared == [] and kv.pool.get(full).tokens == B
        # evict the fork's published copy: the key is free again
        kv.begin(9, conv_key=None, total_tokens=7 * B)
        assert kv.evictions == 1 and len(kv.tree) == 0
        kv.release(9, retain=False)
        # a second fork shares the parent's full block: no promotion
        kv.fork(1, 3)
        kv.ensure_capacity(1, 1)
        kv.commit(1, 1)
        assert parent.shared == [] and parent.private[0] == full
        # with the fork gone, the very next commit (mid-block, token
        # B + 2) promotes the held-back block
        kv.release(3, retain=False)
        kv.ensure_capacity(1, 1)
        kv.commit(1, 1)
        assert [n.ref for n in parent.shared] == [full]
        assert parent.private and parent.private[0] != full
        assert kv.audit() == []


class TestForksAndCow:
    def test_fork_shares_all_blocks(self):
        kv = make_kv()
        kv.begin(1, conv_key=None, total_tokens=6)
        kv.commit(1, 6)
        used = kv.pool.used
        kv.fork(1, 2)
        assert kv.pool.used == used  # no new blocks yet
        assert kv.forks == 1
        assert kv.audit() == []

    def test_first_divergent_write_copies_tail(self):
        kv = make_kv()
        kv.begin(1, conv_key=None, total_tokens=6)
        kv.commit(1, 6)
        kv.fork(1, 2)
        kv.ensure_capacity(2, 1)  # CoW the shared partial tail
        assert kv.cow_copies == 1
        kv.commit(2, 1)
        # the parent's view is untouched
        assert kv._seqs[1].tokens == 6
        assert kv._seqs[2].tokens == 7
        kv.release(1, retain=False)
        kv.release(2, retain=False)
        assert kv.pool.used == 0
        assert kv.audit() == []


class TestEvictionPreemption:
    def test_idle_leaves_evicted_under_pressure(self):
        kv = make_kv(num_blocks=4)
        # park two conversations' worth of idle cached blocks
        for conv in (1, 2):
            kv.begin(conv, conv_key=conv, total_tokens=2 * B)
            kv.commit(conv, 2 * B)
            kv.release(conv, retain=True)
        assert kv.pool.used == 4
        # a new conversation displaces the LRU leaves instead of failing
        kv.begin(9, conv_key=9, total_tokens=2 * B)
        assert kv.evictions >= 1
        assert kv.pool.used <= 4
        assert kv.audit() == []

    def test_preempt_keeps_published_prefix(self):
        kv = make_kv()
        kv.begin(1, conv_key=7, total_tokens=2 * B + 1)
        kv.commit(1, 2 * B + 1)
        kv.preempt(1)
        assert kv.preemptions == 1
        # recompute re-admits and hits the retained full blocks
        adm = kv.begin(2, conv_key=7, total_tokens=2 * B + 1)
        assert adm.cached_tokens == 2 * B
        assert kv.audit() == []

    def test_nothing_evictable_raises_with_clean_state(self):
        kv = make_kv(num_blocks=2)
        kv.begin(1, conv_key=None, total_tokens=2 * B)  # both blocks pinned
        with pytest.raises(KvPoolExhausted):
            kv.begin(2, conv_key=None, total_tokens=B)
        assert kv.live_sequences() == 1
        assert kv.audit() == []


class TestPressureAndStats:
    def test_pressure_counts_only_unreclaimable(self):
        kv = make_kv(num_blocks=4)
        assert kv.pressure() == 0.0
        kv.begin(1, conv_key=7, total_tokens=2 * B)
        kv.commit(1, 2 * B)
        assert kv.pressure() == pytest.approx(0.5)
        kv.release(1, retain=True)  # now cached but idle: reclaimable
        assert kv.pressure() == 0.0

    def test_stats_shape(self):
        kv = make_kv()
        kv.begin(1, conv_key=7, total_tokens=10)
        kv.commit(1, 10)
        kv.release(1)
        stats = kv.stats()
        for key in (
            "num_blocks", "block_tokens", "prefix_sharing", "occupancy_peak",
            "occupancy_p99", "evictions", "preemptions", "cow_copies",
            "prefix_hit_rate",
        ):
            assert key in stats
        assert stats["occupancy_peak"] <= stats["num_blocks"]


class TestAuditAttachment:
    """The audit reconciles prefix-tree attachment, not just refcounts."""

    @staticmethod
    def _second_turn_attached():
        kv = make_kv()
        kv.begin(1, conv_key=7, total_tokens=2 * B + 1)
        kv.commit(1, 2 * B + 1)
        kv.release(1)
        kv.begin(2, conv_key=7, total_tokens=2 * B)  # all cached: no private
        assert kv.audit() == []
        return kv

    def test_missed_release_is_a_finding(self):
        kv = self._second_turn_attached()
        del kv._seqs[2]  # dropped without release: its nodes stay pinned
        found = kv.audit()
        assert len(found) == 2
        assert all("seq_refs=1 but 0 live" in v for v in found)

    def test_idle_count_drift_is_a_finding(self):
        kv = self._second_turn_attached()
        kv.tree._n_idle += 1
        (finding,) = kv.audit()
        assert "idle count" in finding

    def test_unindexed_idle_leaf_is_a_finding(self):
        kv = self._second_turn_attached()
        kv.release(2)
        kv.tree._heap.clear()
        (finding,) = kv.audit()
        assert "0 live eviction-index entries" in finding
