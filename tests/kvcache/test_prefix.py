"""Prefix tree: chain hashing, walk/insert, LRU leaf eviction, and the
incremental idle-leaf index checked against full-tree scans."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kvcache.block import BlockRef
from repro.kvcache.prefix import PrefixTree, chain_hash, token_block_key


def reference_lru_leaf(tree):
    """The least-recently-used idle leaf by a full-tree scan: the
    reference the incremental index must agree with."""
    best = None
    for node in tree.nodes():
        if node.seq_refs != 0 or not node.is_leaf:
            continue
        if best is None or (node.last_use_ns, node.key) < (
            best.last_use_ns,
            best.key,
        ):
            best = node
    return best


def reference_pressure(kv):
    """``KvCacheManager.pressure`` with the idle count walked, not kept."""
    return (kv.pool.used - len(kv.tree.idle_nodes())) / kv.pool.num_blocks


class TestHashing:
    def test_deterministic_and_bounded(self):
        assert chain_hash(7, 42) == chain_hash(7, 42)
        assert 0 <= chain_hash(2**61, 2**40) < 2**62

    def test_chain_order_matters(self):
        a = chain_hash(chain_hash(0, 1), 2)
        b = chain_hash(chain_hash(0, 2), 1)
        assert a != b

    def test_conversations_do_not_collide(self):
        keys = {token_block_key(conv, i) for conv in range(50) for i in range(8)}
        assert len(keys) == 50 * 8


def make_chain(tree, keys, start_block=0):
    nodes = []
    parent = None
    for i, key in enumerate(keys):
        parent = tree.insert(parent, key, BlockRef(start_block + i, 0), now_ns=float(i))
        nodes.append(parent)
    return nodes


class TestWalkInsert:
    def test_walk_matches_longest_prefix(self):
        tree = PrefixTree()
        nodes = make_chain(tree, [10, 11, 12])
        assert tree.walk([10, 11, 12, 13]) == nodes
        assert tree.walk([10, 11]) == nodes[:2]
        assert tree.walk([99]) == []
        assert len(tree) == 3

    def test_duplicate_insert_rejected(self):
        tree = PrefixTree()
        make_chain(tree, [10])
        with pytest.raises(ValueError, match="already cached"):
            tree.insert(None, 10, BlockRef(5, 0), now_ns=0.0)

    def test_lookup(self):
        tree = PrefixTree()
        (node,) = make_chain(tree, [10])
        assert tree.lookup(None, 10) is node
        assert tree.lookup(node, 10) is None


class TestAttachment:
    def test_release_beyond_acquire_rejected(self):
        tree = PrefixTree()
        (node,) = make_chain(tree, [10])
        tree.acquire(node, 1.0)
        tree.release(node, 2.0)
        with pytest.raises(ValueError, match="released more"):
            tree.release(node, 3.0)

    def test_idle_nodes_excludes_attached(self):
        tree = PrefixTree()
        a, b = make_chain(tree, [10, 11])
        tree.acquire(b, 5.0)
        assert tree.idle_nodes() == [a]


class TestEviction:
    def test_lru_leaf_prefers_oldest(self):
        tree = PrefixTree()
        make_chain(tree, [10, 11])  # chain: only the tail is a leaf
        other = tree.insert(None, 20, BlockRef(9, 0), now_ns=-1.0)
        assert tree.lru_leaf() is other

    def test_attached_leaves_are_not_victims(self):
        tree = PrefixTree()
        a, b = make_chain(tree, [10, 11])
        tree.acquire(b, 0.0)
        assert tree.lru_leaf() is None  # a is interior, b is attached

    def test_evict_detaches_and_returns_hold(self):
        tree = PrefixTree()
        a, b = make_chain(tree, [10, 11])
        assert tree.evict(b) == BlockRef(1, 0)
        assert len(tree) == 1
        # the parent became the new evictable tail
        assert tree.lru_leaf() is a

    def test_evict_refuses_interior_and_attached(self):
        tree = PrefixTree()
        a, b = make_chain(tree, [10, 11])
        with pytest.raises(ValueError, match="children"):
            tree.evict(a)
        tree.acquire(b, 0.0)
        with pytest.raises(ValueError, match="attached"):
            tree.evict(b)


# one step: (op, a, b, t) — a/b pick a node or key, t a reused timestamp
_OPS = st.tuples(
    st.sampled_from(["insert", "acquire", "release", "evict_lru", "evict_any"]),
    st.integers(0, 63),
    st.integers(0, 23),
    st.sampled_from([0.0, 1.0, 2.0, 3.0]),
)


class TestIdleLeafIndex:
    """The heap index and idle count against the scans they replaced."""

    @staticmethod
    def _step(tree, op, a, b, t):
        nodes = tree.nodes()
        if op == "insert":
            # keys are unique within a tree (one node per conversation
            # block); a key freed by an eviction may come back
            if any(n.key == b for n in nodes):
                return
            parent = None if a % (len(nodes) + 1) == 0 else nodes[a % len(nodes)]
            tree.insert(parent, b, BlockRef(b, 0), t)
        elif op == "acquire" and nodes:
            tree.acquire(nodes[a % len(nodes)], t)
        elif op == "release":
            held = [n for n in nodes if n.seq_refs > 0]
            if held:
                tree.release(held[a % len(held)], t)
        elif op == "evict_lru":
            leaf = tree.lru_leaf()
            if leaf is not None:
                tree.evict(leaf)
        elif op == "evict_any":
            idle = [n for n in nodes if n.seq_refs == 0 and n.is_leaf]
            if idle:
                tree.evict(idle[a % len(idle)])

    @given(steps=st.lists(_OPS, max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_matches_full_scans_after_every_step(self, steps):
        tree = PrefixTree()
        for step in steps:
            self._step(tree, *step)
            assert tree.lru_leaf() is reference_lru_leaf(tree)
            assert tree.idle_count == len(tree.idle_nodes())
            idle_leaves = [n for n in tree.nodes() if n.seq_refs == 0 and n.is_leaf]
            indexed = tree.indexed_leaves()
            assert len(indexed) == len(idle_leaves)
            assert {n.key for n in indexed} == {n.key for n in idle_leaves}

    def test_evicting_a_child_reindexes_its_parent(self):
        tree = PrefixTree()
        a = tree.insert(None, 10, BlockRef(0, 0), now_ns=0.0)
        b = tree.insert(a, 11, BlockRef(1, 0), now_ns=5.0)
        assert tree.lru_leaf() is b  # drops a's stale entry on the way
        tree.evict(b)
        assert tree.lru_leaf() is a

    def test_heap_stays_bounded_by_live_entries(self):
        tree = PrefixTree()
        node = tree.insert(None, 10, BlockRef(0, 0), now_ns=0.0)
        for i in range(1000):
            tree.acquire(node, float(i))
            tree.release(node, float(i))
        assert len(tree._heap) <= 2 * len(tree.indexed_leaves()) + 1
        assert tree.lru_leaf() is node
