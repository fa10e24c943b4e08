"""The simulator's layers as the traced run sees them.

Each layer is a module name of ``repro`` plus the public entry points
the recorder wraps (see :class:`spans.EntryPoint`).  ``PROBES`` turn a
call into a count measured where the work happens.
"""

from __future__ import annotations

from typing import Dict, Tuple

from spans import EntryPoint, Probe

__all__ = ["ENTRY_POINTS", "LAYERS", "PRICING_METHODS", "PROBES"]

ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("kvcache", "repro.kvcache.manager", "KvCacheManager"),
    EntryPoint("kvcache", "repro.kvcache.prefix", "PrefixTree"),
    EntryPoint("kvcache", "repro.kvcache.pool", "BlockPool"),
    EntryPoint("kvcache", "repro.kvcache.pool", None, ("recover_pool",)),
    EntryPoint("serving", "repro.serving.runtime", "ServingRuntime", ("run",)),
    EntryPoint("serving", "repro.kvcache.scheduler", None, ("run_kv_serving",)),
    EntryPoint("serving", "repro.workloads.runtime", "WorkloadLoop", ("run",)),
    EntryPoint("serving", "repro.serving.queue", "AdmissionQueue"),
    EntryPoint("serving", "repro.serving.breaker", "CircuitBreaker"),
    EntryPoint("serving", "repro.serving.breaker", "BrownoutController"),
    EntryPoint("engine", "repro.engine.policies", "InferenceEngine"),
    EntryPoint("fleet", "repro.fleet.runtime", "FleetRuntime", ("run",)),
    EntryPoint("fleet", "repro.fleet.router", "FleetRouter", ("route",)),
    EntryPoint("fleet", "repro.fleet.device", "FleetDevice"),
    EntryPoint("fleet", "repro.fleet.autoscaler", "Autoscaler"),
    EntryPoint("workloads", "repro.workloads.moe", "ExpertPool", ("touch",)),
    EntryPoint("workloads", "repro.workloads.moe", "ExpertPlacementLoop", ("decode",)),
    EntryPoint("workloads", "repro.workloads.speculative", "SpeculativeLoop", ("decode",)),
    EntryPoint("workloads", "repro.workloads.coresident", "CoResidencyLoop", ("decode",)),
    EntryPoint("core.pimalloc", "repro.core.pimalloc", "PimAllocator"),
    EntryPoint("os", "repro.os.vm", "AddressSpace", ("mmap", "munmap")),
    EntryPoint("os", "repro.os.buddy", "BuddyAllocator", ("alloc", "free")),
    EntryPoint("os", "repro.os.page_table", "PageTable", ("map_page", "unmap_page")),
    EntryPoint("os", "repro.os.mmu", "Mmu", ("translate_range",)),
    EntryPoint("core.journal", "repro.core.journal", "MapJournal", ("begin", "step", "commit")),
    EntryPoint("core.controller", "repro.core.controller", "MemoryController",
               ("translate_array", "read", "write")),
    EntryPoint("core.controller", "repro.core.controller", "MappingTable"),
    EntryPoint("core.mapping", "repro.core.mapping", "AddressMapping", ("decode_array",)),
    EntryPoint("dram.memory", "repro.dram.memory", "PhysicalMemory", ("gather", "scatter")),
    EntryPoint("dram.scheduler", "repro.dram.system", "DramTimingSimulator", ("run",)),
    EntryPoint("dram.scheduler", "repro.dram.scheduler", "ChannelScheduler", ("enqueue", "drain")),
    EntryPoint("reliability.ecc", "repro.reliability.ecc", "EccEngine", ("protect", "fetch")),
)

#: layer names in report order
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(ep.layer for ep in ENTRY_POINTS))

#: the engine's phase-pricing methods (``engine.pricing_calls``); the
#: per-instance memo answers repeats without reaching them
PRICING_METHODS: Tuple[str, ...] = tuple(
    f"InferenceEngine.{name}" for name in (
        "prefill_ns", "decode_total_ns", "soc_prefill_ns", "pim_prefill_ns",
        "soc_decode_step_ns", "pim_decode_step_ns", "relayout_total_ns",
    )
)


def _began_with_eviction(args: tuple, kwargs: dict):
    manager = args[0]
    before = manager.evictions
    return lambda result: float(manager.evictions > before)


def _pas_size(args: tuple, kwargs: dict):
    pas = args[1] if len(args) > 1 else kwargs["pas"]
    return lambda result: float(len(pas))


def _ecc_words(args: tuple, kwargs: dict):
    byte_index = args[5] if len(args) > 5 else kwargs["byte_index"]
    # every stream the controller moves is 8-byte-word aligned
    return lambda result: float(len(byte_index) // 8)


PROBES: Dict[str, Tuple[str, Probe]] = {
    "KvCacheManager.begin": ("kvcache.begins_evicting", _began_with_eviction),
    "MemoryController.translate_array": ("core.controller.bytes_translated", _pas_size),
    "EccEngine.protect": ("reliability.ecc.words_protected", _ecc_words),
    "EccEngine.fetch": ("reliability.ecc.words_fetched", _ecc_words),
}
