"""Mixture-of-experts expert placement as a serving workload (extension).

Every expert is its **own** pimalloc'd weight region in a dedicated
journaled :class:`PimSystem` — each load runs ``select_mapping`` and
registers the chosen MapID, each eviction is a journaled ``free`` that
drops the mapping-table reference.  The placement accounting FACIL's
flexible per-tensor mappings enable is exactly what the workload
exercises: experts come and go, but the mapping table must never leak
and the journal must always settle.

A seeded router with a Zipf-like popularity curve draws
``experts_per_token`` distinct experts per decode token; misses stall
the decode by the relayout-priced cost of streaming the expert's bytes
in from backing store, and a cold expert is LRU-evicted to make room
(never one of the current token's experts — the budget admits a full
token's working set by construction).

Conservation contract (the property tests and the bench gate):

* the resident count never exceeds ``resident_experts``;
* after teardown the journal has no uncommitted transactions and the
  mapping table is back to the conventional entry alone.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set

from repro.core.pimalloc import PimSystem, PimTensor
from repro.core.relayout import relayout_cost_ns
from repro.core.selector import MatrixConfig
from repro.dram.config import TINY_ORG
from repro.pim.config import aim_config_for
from repro.serving.device import Route
from repro.serving.runtime import ServingRuntime
from repro.serving.workload import Request
from repro.workloads.runtime import DecodeResult, WorkloadLoop, require_placed
from repro.workloads.specs import ExpertPlacementSpec

__all__ = ["ExpertPlacementLoop", "ExpertPool", "expert_pool_org", "route_experts"]

_HUGE_PAGE_BYTES = 2 << 20


def _next_pow2(n: int) -> int:
    return 1 << max(0, (int(n) - 1).bit_length())


def expert_pool_org(spec: ExpertPlacementSpec):
    """A DRAM organization sized to the resident-expert budget.

    The pool gets its own geometry (the chaos campaign's tiny org with
    rows scaled up) rather than the full platform DRAM, so the buddy
    allocator stays small while still fitting ``resident_experts``
    huge-page-padded experts with comfortable headroom for padding and
    churn.
    """
    raw = spec.expert_rows * spec.expert_cols * 2  # FP16
    padded = -(-raw // _HUGE_PAGE_BYTES) * _HUGE_PAGE_BYTES
    capacity = _next_pow2(max(4 * (spec.resident_experts + 1) * padded,
                              16 << 20))
    bank_row_bytes = TINY_ORG.total_banks * TINY_ORG.row_bytes
    return replace(TINY_ORG, rows_per_bank=capacity // bank_row_bytes)


def route_experts(
    rng: random.Random, n_experts: int, k: int, skew: float
) -> List[int]:
    """Draw *k* distinct expert ids from a Zipf-like popularity curve.

    Expert *i* has weight ``1 / (i + 1) ** skew`` (skew 0 is uniform).
    Exactly *k* variates are consumed per call, so the RNG stream
    position is a pure function of the token count.
    """
    if not 1 <= k <= n_experts:
        raise ValueError(f"k must be in [1, n_experts={n_experts}], got {k!r}")
    pool = list(range(n_experts))
    weights = [1.0 / (i + 1) ** skew for i in pool]
    total = sum(weights)
    chosen: List[int] = []
    for _ in range(k):
        r = rng.random() * total
        acc = 0.0
        idx = len(pool) - 1  # guard against float round-off at the tail
        for j, w in enumerate(weights):
            acc += w
            if r < acc:
                idx = j
                break
        chosen.append(pool.pop(idx))
        total -= weights.pop(idx)
    return chosen


class ExpertPool:
    """LRU-bounded resident set of journaled per-expert weight regions."""

    def __init__(self, spec: ExpertPlacementSpec, dram_cfg) -> None:
        self.spec = spec
        self.dram_cfg = dram_cfg
        org = expert_pool_org(spec)
        self.system = PimSystem.build(
            org, aim_config_for(org), functional=False, journal=True
        )
        self.matrix = MatrixConfig(
            rows=spec.expert_rows, cols=spec.expert_cols, dtype_bytes=2
        )
        #: expert id -> tensor, in LRU order (oldest first)
        self.resident: "OrderedDict[int, PimTensor]" = OrderedDict()
        #: expert id -> MapID, recorded at first load
        self.map_ids: Dict[int, int] = {}
        self._loaded_once: Set[int] = set()
        self.hits = 0
        self.misses = 0
        self.cold_loads = 0
        self.reloads = 0
        self.evictions = 0
        self.resident_peak = 0
        self.load_stall_ns = 0.0
        #: budget overruns observed live (must stay 0)
        self.budget_violations = 0
        #: per-load cost: stream the expert's padded bytes in at the
        #: *serving platform's* DRAM bandwidth (the pool org is only a
        #: placement sandbox, not the cost model)
        self._load_ns: Optional[float] = None

    def touch(self, chosen: Sequence[int]) -> float:
        """Access *chosen* (one token's experts); returns the miss stall."""
        stall = 0.0
        protected = set(chosen)
        for expert in chosen:
            if expert in self.resident:
                self.hits += 1
                self.resident.move_to_end(expert)
                continue
            self.misses += 1
            if len(self.resident) >= self.spec.resident_experts:
                self._evict_one(protected)
            tensor = self.system.pimalloc(self.matrix)
            self.resident[expert] = tensor
            self.map_ids.setdefault(expert, tensor.map_id)
            if self._load_ns is None:
                self._load_ns = relayout_cost_ns(
                    tensor.nbytes_padded, self.dram_cfg
                ).total_ns
            if expert in self._loaded_once:
                self.reloads += 1
            else:
                self.cold_loads += 1
                self._loaded_once.add(expert)
            stall += self._load_ns
            if len(self.resident) > self.spec.resident_experts:
                self.budget_violations += 1
        self.resident_peak = max(self.resident_peak, len(self.resident))
        self.load_stall_ns += stall
        return stall

    def _evict_one(self, protected: Set[int]) -> None:
        # oldest unprotected resident; experts_per_token <= budget
        # guarantees one exists whenever the set is full
        for expert in self.resident:
            if expert not in protected:
                victim = self.resident.pop(expert)
                victim.free()
                self.evictions += 1
                return
        raise RuntimeError(
            "no evictable expert: one token's experts exceed the budget"
        )

    def drain(self) -> None:
        """Free every resident expert (end of run)."""
        while self.resident:
            _, tensor = self.resident.popitem(last=False)
            tensor.free()

    def conservation_findings(self) -> List[str]:
        """Post-drain invariants; non-empty means the accounting leaked."""
        findings: List[str] = []
        if self.budget_violations:
            findings.append(
                f"resident set exceeded budget {self.budget_violations} time(s)"
            )
        if self.resident:
            findings.append(f"{len(self.resident)} expert(s) never freed")
        uncommitted = self.system.journal.uncommitted()
        if uncommitted:
            findings.append(
                f"{len(uncommitted)} uncommitted journal transaction(s)"
            )
        live = len(self.system.controller.table)
        if live != 1:
            findings.append(
                f"mapping table holds {live} entries (want conventional only)"
            )
        return findings


class ExpertPlacementLoop(WorkloadLoop):
    """Serving loop whose decode routes tokens through an expert pool."""

    name = "moe"

    def __init__(
        self, runtime: ServingRuntime, spec: ExpertPlacementSpec
    ) -> None:
        super().__init__(runtime, spec)
        self.spec: ExpertPlacementSpec = spec
        self.pool: Optional[ExpertPool] = None
        self.tokens_routed = 0
        self.findings: List[str] = []

    # -- lifecycle -----------------------------------------------------

    def setup(self) -> None:
        self.pool = ExpertPool(self.spec, self.runtime.engine.platform.dram)

    def teardown(self, end_ns: float) -> None:
        pool = require_placed(self.pool, "expert pool")
        pool.drain()
        self.findings = pool.conservation_findings()

    # -- decode --------------------------------------------------------

    def decode(
        self,
        head: Request,
        route: Route,
        prefill_end_ns: float,
        decode_tokens: int,
        rng: random.Random,
    ) -> DecodeResult:
        runtime = self.runtime
        pool = require_placed(self.pool, "expert pool")
        spec = self.spec
        on_pim = route.pim_decode
        resource = "pim" if on_pim else "soc"
        step = (
            runtime.engine.pim_decode_step_ns
            if on_pim
            else runtime.engine.soc_decode_step_ns
        )
        total_ns = 0.0
        ctx = head.prefill_tokens
        for i in range(decode_tokens):
            chosen = route_experts(
                rng, spec.n_experts, spec.experts_per_token, spec.router_skew
            )
            self.tokens_routed += 1
            total_ns += pool.touch(chosen) + step(ctx + i)
        return self.core.decode_phase(
            prefill_end_ns, total_ns, resource, decode_tokens, self.free, rng
        )

    # -- reporting -----------------------------------------------------

    def decode_span_args(self, head: Request) -> Dict:
        return {"experts_per_token": self.spec.experts_per_token}

    def sections(self) -> Dict[str, Optional[Dict]]:
        pool = require_placed(self.pool, "expert pool")
        accesses = pool.hits + pool.misses
        section = {
            "name": self.name,
            "n_experts": self.spec.n_experts,
            "experts_per_token": self.spec.experts_per_token,
            "resident_experts": self.spec.resident_experts,
            "router_skew": self.spec.router_skew,
            "tokens_routed": self.tokens_routed,
            "expert_accesses": accesses,
            "hits": pool.hits,
            "misses": pool.misses,
            "hit_rate": pool.hits / accesses if accesses else 0.0,
            "cold_loads": pool.cold_loads,
            "reloads": pool.reloads,
            "evictions": pool.evictions,
            "resident_peak": pool.resident_peak,
            "load_stall_ns": pool.load_stall_ns,
            "map_ids": sorted(set(pool.map_ids.values())),
            "journal_transactions": len(pool.system.journal.transactions()),
            # the invariants the property tests and the bench gate assert
            "conservation_findings": len(self.findings),
            "findings": list(self.findings),
        }
        return {"workload": section}
