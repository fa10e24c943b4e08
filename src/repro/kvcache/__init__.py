"""Paged, MapID-aware KV-cache management (extension).

The paper treats the KV cache as an analytic byte count; a serving
system has to *place* it.  This package manages the decode-time KV
cache the way vLLM does — fixed-size token blocks, per-sequence block
tables, hash-based prefix sharing with copy-on-write forks — but
carves the blocks out of huge pages allocated through ``pimalloc``, so
every block's physical placement goes through the FACIL mapping
selector and PIM attention reads stay chunk-aligned:

* :mod:`repro.kvcache.block` — block handles, generation-checked
  references, and the error taxonomy;
* :mod:`repro.kvcache.pool` — the bounded :class:`BlockPool` with
  refcounted, journal-protected alloc/free (its own write-ahead
  :class:`~repro.core.journal.MapJournal` instance plus
  :func:`recover_pool` replay);
* :mod:`repro.kvcache.prefix` — the hash-chained :class:`PrefixTree`
  of cached full blocks with LRU leaf eviction;
* :mod:`repro.kvcache.manager` — :class:`KvCacheManager`, the
  sequence-facing API (admit, grow, fork, preempt, release) exposing
  KV pressure as a first-class signal;
* :mod:`repro.kvcache.scheduler` —
  :class:`~repro.kvcache.scheduler.KvServingLoop`, the
  continuous-batching serving loop the runtime runs when
  ``ServingConfig.kv_blocks > 0``.

See docs/KVCACHE.md for the block/page/MapID layout and the eviction
and copy-on-write invariants.
"""

from repro.kvcache.block import (
    BlockRef,
    KvBlock,
    KvCacheError,
    KvPoolExhausted,
    SharedBlockWriteError,
    StaleBlockError,
)
from repro.kvcache.manager import KvCacheManager, SeqAdmission
from repro.kvcache.pool import KV_CRASH_SITES, BlockPool, KvSpec, recover_pool
from repro.kvcache.prefix import PrefixNode, PrefixTree

__all__ = [
    "BlockPool",
    "BlockRef",
    "KV_CRASH_SITES",
    "KvBlock",
    "KvCacheError",
    "KvCacheManager",
    "KvPoolExhausted",
    "KvSpec",
    "PrefixNode",
    "PrefixTree",
    "SeqAdmission",
    "SharedBlockWriteError",
    "StaleBlockError",
    "recover_pool",
]
