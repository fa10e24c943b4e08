"""Hash-chained prefix tree of cached full KV blocks.

vLLM-style automatic prefix caching: a *full* block of a conversation
is published under a chain key — a deterministic hash folding the
parent block's key with the block's content key — so a later turn (or
a fork) walking the same chain re-acquires the cached KV instead of
recomputing it.  Only full blocks are shared; partial tails stay
private to their sequence.

Nodes carry a ``seq_refs`` count of the sequences currently attached.
A node with ``seq_refs == 0`` is *cached but idle*: reclaimable.
Eviction is LRU over idle **leaves** — interior nodes are pinned by
their children, so chains evict tail-first and a shared prefix
survives as long as any extension of it is warm.

The tree keeps both eviction inputs incrementally: a heap of idle
leaves ordered by ``(last_use_ns, key)`` with lazy invalidation (so
:meth:`PrefixTree.lru_leaf` costs O(log n) amortized instead of a full
walk) and a count of idle nodes (so the manager's pressure read is
O(1)).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.kvcache.block import BlockRef

__all__ = ["PrefixNode", "PrefixTree", "chain_hash", "token_block_key"]

_HASH_MASK = (1 << 62) - 1


def chain_hash(parent_key: int, token_key: int) -> int:
    """Fold one block's content key into its parent's chain key.

    Deterministic across runs (no ``PYTHONHASHSEED`` dependence): plain
    integer arithmetic, FNV-style."""
    return ((parent_key * 1000003) ^ token_key) & _HASH_MASK


def token_block_key(conv_key: int, block_index: int) -> int:
    """Content key of block *block_index* of conversation *conv_key*.

    The simulation does not materialize token ids, so the conversation
    identity stands in for the token content: two sequences share KV
    exactly when they belong to the same conversation prefix."""
    return chain_hash((conv_key * 2654435761) & _HASH_MASK, block_index + 1)


class PrefixNode:
    """One cached full block in the chain tree."""

    __slots__ = (
        "key", "parent", "children", "ref", "seq_refs", "last_use_ns", "stamp",
    )

    def __init__(
        self, key: int, parent: Optional["PrefixNode"], ref: BlockRef
    ) -> None:
        self.key = key
        self.parent = parent
        self.children: Dict[int, "PrefixNode"] = {}
        self.ref = ref
        self.seq_refs = 0
        self.last_use_ns = 0.0
        #: push counter of this node's newest idle-leaf index entry
        self.stamp = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children


#: one idle-leaf index entry: ``(last_use_ns, key, push counter, node)``
_Entry = Tuple[float, int, int, PrefixNode]


class PrefixTree:
    """Chain-keyed tree of cached full blocks with LRU leaf eviction.

    Idle leaves are indexed by a heap of ``(last_use_ns, key, push
    counter, node)`` entries.  An entry is pushed when a node becomes
    an idle leaf (inserted, released to ``seq_refs == 0``, or left
    childless by an eviction) and is *live* while its counter is the
    node's newest and the node is still an attached idle leaf; any
    other entry is stale and is dropped when it reaches the top.  Keys
    are unique within a tree (one node per conversation block), so the
    heap's minimum is the idle leaf with the smallest
    ``(last_use_ns, key)``; the counter only keeps the node out of the
    comparison.
    """

    def __init__(self) -> None:
        # the root is a sentinel holding no block
        self.root = PrefixNode(key=0, parent=None, ref=BlockRef(-1, -1))
        self._n_nodes = 0
        self._n_idle = 0
        self._heap: List[_Entry] = []
        self._pushes = 0
        #: live heap entries, one per idle leaf
        self._n_live = 0

    def __len__(self) -> int:
        return self._n_nodes

    @property
    def idle_count(self) -> int:
        """Number of cached-but-unreferenced nodes, kept incrementally."""
        return self._n_idle

    # -- lookup / insert ---------------------------------------------------

    def walk(self, token_keys: Iterable[int]) -> List[PrefixNode]:
        """Longest cached chain matching *token_keys*, root-first."""
        node = self.root
        hits: List[PrefixNode] = []
        for key in token_keys:
            child = node.children.get(key)
            if child is None:
                break
            hits.append(child)
            node = child
        return hits

    def insert(
        self,
        parent: Optional[PrefixNode],
        token_key: int,
        ref: BlockRef,
        now_ns: float,
    ) -> PrefixNode:
        """Publish a full block under *parent* (None = root).

        The caller transfers its block hold to the tree; the tree frees
        it at eviction time."""
        base = parent if parent is not None else self.root
        if token_key in base.children:
            raise ValueError(f"chain key {token_key} already cached")
        if base is not self.root and base.seq_refs == 0 and not base.children:
            self._n_live -= 1  # the idle parent stops being a leaf
        node = PrefixNode(key=token_key, parent=base, ref=ref)
        node.last_use_ns = now_ns
        base.children[token_key] = node
        self._n_nodes += 1
        self._n_idle += 1
        self._push(node)
        return node

    def lookup(self, parent: Optional[PrefixNode], token_key: int) -> Optional[PrefixNode]:
        base = parent if parent is not None else self.root
        return base.children.get(token_key)

    # -- sequence attachment ----------------------------------------------

    def acquire(self, node: PrefixNode, now_ns: float) -> None:
        if node.seq_refs == 0:
            self._n_idle -= 1
            if not node.children:
                self._n_live -= 1  # its index entry goes stale
        node.seq_refs += 1
        node.last_use_ns = now_ns

    def release(self, node: PrefixNode, now_ns: float) -> None:
        if node.seq_refs <= 0:
            raise ValueError(f"node {node.key} released more than acquired")
        node.seq_refs -= 1
        node.last_use_ns = now_ns
        if node.seq_refs == 0:
            self._n_idle += 1
            if not node.children:
                self._push(node)

    # -- idle-leaf index ---------------------------------------------------

    def _push(self, node: PrefixNode) -> None:
        """Index *node*, which just became an idle leaf.  Rebuilds the
        heap from its live entries once stale ones outnumber them, so
        it never holds more than twice as many entries as the tree has
        nodes (plus one)."""
        self._pushes += 1
        node.stamp = self._pushes
        heapq.heappush(self._heap, (node.last_use_ns, node.key, self._pushes, node))
        self._n_live += 1
        if len(self._heap) > 2 * self._n_live:
            self._heap = [e for e in self._heap if self._is_live(e)]
            heapq.heapify(self._heap)

    @staticmethod
    def _is_live(entry: _Entry) -> bool:
        node = entry[3]
        return (
            entry[2] == node.stamp
            and node.seq_refs == 0
            and not node.children
            and node.parent is not None
        )

    def indexed_leaves(self) -> List[PrefixNode]:
        """Nodes of the live index entries, one per entry (for audits:
        every idle leaf must appear exactly once)."""
        return [e[3] for e in self._heap if self._is_live(e)]

    # -- eviction ----------------------------------------------------------

    def _iter_nodes(self) -> Iterable[PrefixNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node is not self.root:
                yield node
            stack.extend(node.children.values())

    def nodes(self) -> List[PrefixNode]:
        return list(self._iter_nodes())

    def idle_nodes(self) -> List[PrefixNode]:
        """Cached-but-unreferenced nodes, by a full walk (the manager's
        pressure signal reads :attr:`idle_count` instead)."""
        return [n for n in self._iter_nodes() if n.seq_refs == 0]

    def lru_leaf(self) -> Optional[PrefixNode]:
        """The least-recently-used idle leaf, or None.  Pops the stale
        entries above it off the index."""
        heap = self._heap
        while heap:
            if self._is_live(heap[0]):
                return heap[0][3]
            heapq.heappop(heap)
        return None

    def evict(self, node: PrefixNode) -> BlockRef:
        """Detach an idle leaf; returns the block hold for the caller to
        free."""
        if node.seq_refs != 0:
            raise ValueError(f"node {node.key} is attached to {node.seq_refs} seq(s)")
        if not node.is_leaf:
            raise ValueError(f"node {node.key} has children; evict tail-first")
        parent = node.parent
        if parent is None:
            raise ValueError("cannot evict the root sentinel")
        del parent.children[node.key]
        node.parent = None
        self._n_nodes -= 1
        self._n_idle -= 1
        self._n_live -= 1  # its index entry goes stale
        if parent is not self.root and parent.seq_refs == 0 and not parent.children:
            self._push(parent)
        return node.ref
