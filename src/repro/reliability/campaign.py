"""Chaos campaigns: seeded end-to-end fault sweeps with a reliability
report (extension).

A campaign drives the *functional* FACIL stack (pimalloc -> virtual-
address store -> PIM-layout physical placement -> load) for a sequence of
queries while a :class:`~repro.reliability.faults.FaultInjector` injects
faults at rates given by :class:`CampaignSpec`, and a
:class:`~repro.reliability.degrade.ResilientEngine` prices how the
corresponding inference queries would have been served.

Each query walks a **recovery ladder** — every injected fault must end up
in exactly one bucket:

1. **corrected** — single-bit flips fixed transparently by SECDED ECC;
2. **detected** — uncorrectable ECC words, parity-failed mapping entries,
   MapID-corrupted PTEs, stale TLB entries, injected allocation failures:
   all surfaced as exceptions or consistency-check failures, then
   recovered (rewrite, repair, flush, retry) and priced as retries;
3. **degraded** — permanent PIM failures served through the SoC fallback.

Anything that slips through all three and still changes the bytes a read
returns is **silent corruption** — the campaign checks every load against
a ground-truth CRC and counts it.  The acceptance bar for the reliability
subsystem is *zero silent corruptions* at any configured rate.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.pimalloc import PimSystem
from repro.core.selector import MatrixConfig
from repro.dram.config import TINY_ORG, DramOrganization
from repro.os.buddy import OutOfMemoryError
from repro.os.page_table import MAP_ID_BITS
from repro.pim.config import PimConfig
from repro.reliability.degrade import ResilientEngine, ResilientQuery
from repro.reliability.ecc import UncorrectableEccError
from repro.reliability.faults import FaultInjector
from repro.reliability.integrity import MappingIntegrityError
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.render import percentile_ms, render_text

__all__ = ["CampaignSpec", "ReliabilityReport", "run_campaign", "TINY_CAMPAIGN_ORG"]

#: Small functional geometry used when the caller does not supply one:
#: 2 channels x 1 rank x 4 banks, 4096 rows x 256 B — big enough for a
#: few huge pages, small enough to run hundreds of stores per second.
TINY_CAMPAIGN_ORG = TINY_ORG

#: Matrix shapes cycled through by the campaign (all map to distinct
#: PIM-optimized mappings on the tiny geometry).
_SHAPES: Tuple[Tuple[int, int], ...] = ((16, 256), (8, 128), (32, 256))


@dataclass(frozen=True)
class CampaignSpec:
    """Configuration of one chaos campaign (fully determined by *seed*)."""

    seed: int = 0
    n_queries: int = 20
    policy: str = "facil"
    prefill_len: int = 64
    decode_len: int = 16
    #: expected transient single-bit flips injected per query
    flip_rate: float = 1.0
    #: probability of an uncorrectable double-bit flip per query
    double_flip_rate: float = 0.0
    #: probability of a MapID bit flip in a live PTE per query
    pte_corrupt_rate: float = 0.0
    #: probability of a scrambled mapping-table entry per query
    mapping_corrupt_rate: float = 0.0
    #: probability of a swallowed TLB shootdown per query
    stale_tlb_rate: float = 0.0
    #: probability of an injected allocation failure per query
    alloc_fail_rate: float = 0.0
    #: query index at which one PIM unit permanently fails (None: never)
    pu_fail_at: Optional[int] = None


@dataclass
class ReliabilityReport:
    """Aggregate outcome of one campaign."""

    spec: CampaignSpec
    #: fault counters live in a telemetry registry (one sample per fault
    #: kind on ``faults_injected_total``) instead of an ad-hoc dict; the
    #: :attr:`injected` view keeps the report's public shape
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    corrected: int = 0  # single-bit flips fixed by ECC
    detected: int = 0  # surfaced + recovered faults
    silent: int = 0  # corruption that reached a consumer unnoticed
    aborted: int = 0  # queries the resilient engine gave up on
    served: int = 0
    queries: List[ResilientQuery] = field(default_factory=list)
    fault_log_len: int = 0
    health: Dict[str, str] = field(default_factory=dict)

    @property
    def injected(self) -> Dict[str, int]:
        """Injected-fault counts by kind (view over the registry)."""
        counter = self.metrics.get("faults_injected_total")
        if counter is None:
            return {}
        return {
            sample["labels"]["kind"]: int(sample["value"])
            for sample in counter.sample_dicts()
        }

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    @property
    def availability(self) -> float:
        return self.served / self.n_queries if self.queries else 0.0

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def _ttlts(self) -> List[float]:
        return [q.ttlt_ns for q in self.queries]

    @property
    def mean_ttlt_ns(self) -> float:
        ttlts = self._ttlts()
        return sum(ttlts) / len(ttlts) if ttlts else 0.0

    @property
    def p99_ttlt_ns(self) -> float:
        return percentile_ms(self._ttlts(), 99.0) * 1e6

    @property
    def mean_degradation_ns(self) -> float:
        if not self.queries:
            return 0.0
        return float(np.mean([q.degradation_ns for q in self.queries]))

    @property
    def degraded_queries(self) -> int:
        return sum(1 for q in self.queries if q.degraded)

    def to_dict(self) -> Dict:
        """Machine-readable form (the CLI writes this to
        ``benchmarks/results/``)."""
        return {
            "seed": self.spec.seed,
            "policy": self.spec.policy,
            "n_queries": self.n_queries,
            "injected": dict(sorted(self.injected.items())),
            "total_injected": self.total_injected,
            "corrected": self.corrected,
            "detected": self.detected,
            "silent": self.silent,
            "aborted": self.aborted,
            "served": self.served,
            "availability": self.availability,
            "degraded_queries": self.degraded_queries,
            "mean_ttlt_ms": self.mean_ttlt_ns / 1e6,
            "p99_ttlt_ms": self.p99_ttlt_ns / 1e6,
            "mean_degradation_ms": self.mean_degradation_ns / 1e6,
            "health": dict(self.health),
        }

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        header = (
            f"chaos campaign: seed={self.spec.seed} policy={self.spec.policy} "
            f"queries={self.n_queries}"
        )
        pairs = [
            (
                "injected faults",
                ", ".join(f"{k}={v}" for k, v in sorted(self.injected.items()))
                or "none",
            ),
            ("corrected (ECC)", self.corrected),
            ("detected", self.detected),
            ("silent", self.silent),
            ("aborted", self.aborted),
            ("availability", f"{self.availability:.3f}"),
            ("degraded queries", self.degraded_queries),
            ("mean TTLT", f"{self.mean_ttlt_ns / 1e6:.3f} ms"),
            ("p99 TTLT", f"{self.p99_ttlt_ns / 1e6:.3f} ms"),
            ("mean degradation", f"{self.mean_degradation_ns / 1e6:.3f} ms"),
            (
                "component health",
                ", ".join(f"{k}={v}" for k, v in self.health.items())
                or "all healthy",
            ),
        ]
        return render_text(header, pairs)


def _count(report: ReliabilityReport, kind: str, n: int = 1) -> None:
    report.metrics.counter(
        "faults_injected_total", "faults injected by kind", labelnames=("kind",)
    ).inc(n, kind=kind)


def _poisson_like(rng, rate: float) -> int:
    """Small deterministic fault-count draw: floor(rate) plus a Bernoulli
    on the fractional part (keeps expectations exact without needing a
    full Poisson sampler)."""
    base = int(rate)
    if rng.random() < rate - base:
        base += 1
    return base


def run_campaign(
    spec: CampaignSpec,
    engine: Optional[ResilientEngine] = None,
    org: Optional[DramOrganization] = None,
    pim: Optional[PimConfig] = None,
) -> ReliabilityReport:
    """Run one seeded chaos campaign; see the module docstring.

    *engine* defaults to a :class:`ResilientEngine` over the iPhone
    platform (the smallest model, fastest to construct); pass one to
    reuse an existing engine across sweeps.
    """
    if spec.n_queries <= 0:
        raise ValueError("n_queries must be positive")
    if engine is None:
        from repro.engine.policies import InferenceEngine
        from repro.platforms.specs import IPHONE_15_PRO

        engine = ResilientEngine(InferenceEngine(IPHONE_15_PRO))

    campaign_org = org if org is not None else TINY_CAMPAIGN_ORG
    if pim is None:
        from repro.pim.config import aim_config_for

        pim = aim_config_for(campaign_org)
    system = PimSystem.build(
        campaign_org, pim, functional=True, ecc=True, integrity=True
    )
    injector = FaultInjector(spec.seed).attach(system)
    rng = injector.rng  # one stream drives everything: reproducible
    data_rng = np.random.default_rng(spec.seed)

    report = ReliabilityReport(spec=spec)
    if system.ecc is None:
        raise ValueError("reliability campaign requires an ECC-enabled system")
    ecc = system.ecc
    table = system.controller.table
    tlb = system.space.mmu.tlb

    for query_index in range(spec.n_queries):
        transient_faults = 0  # detected faults needing a retry this query

        # -- permanent PU failure -------------------------------------
        if spec.pu_fail_at is not None and query_index == spec.pu_fail_at:
            injector.fail_pu((0, 0, 0))
            engine.note_fault(ResilientEngine.PIM, permanent=True)
            _count(report, "pu-fail")

        # -- allocation (with injected OOM + retry) -------------------
        rows, cols = _SHAPES[query_index % len(_SHAPES)]
        matrix = MatrixConfig(rows=rows, cols=cols, dtype_bytes=2)
        if rng.random() < spec.alloc_fail_rate:
            injector.schedule_alloc_failures(1)
            _count(report, "alloc-oom")
        try:
            tensor = system.pimalloc(matrix)
        except OutOfMemoryError:
            report.detected += 1  # surfaced; retry once (hook consumed)
            transient_faults += 1
            tensor = system.pimalloc(matrix)

        # -- store ground-truth data ----------------------------------
        data = data_rng.integers(0, 1 << 16, size=(rows, cols), dtype=np.uint16)
        truth_crc = zlib.crc32(data.tobytes())
        tensor.store(data)

        # -- inject per-query faults ----------------------------------
        n_flips = _poisson_like(rng, spec.flip_rate)
        if n_flips:
            events = injector.flip_bits_in_tensor(system, tensor, n_flips)
            _count(report, "transient-flip", len(events))
        double_flipped = rng.random() < spec.double_flip_rate
        if double_flipped:
            injector.double_flip_in_tensor(system, tensor)
            _count(report, "double-flip")
        pte_bit: Optional[int] = None
        if rng.random() < spec.pte_corrupt_rate:
            pte_bit = rng.randrange(MAP_ID_BITS)
            injector.corrupt_pte_map_id(system, tensor.va, bit=pte_bit)
            _count(report, "pte-map-id")
        mapping_corrupted = rng.random() < spec.mapping_corrupt_rate
        if mapping_corrupted:
            injector.corrupt_mapping_entry(table, tensor.map_id)
            _count(report, "mapping-entry")
        stale_tlb = rng.random() < spec.stale_tlb_rate
        if stale_tlb:
            injector.suppress_invalidations(1)
            _count(report, "stale-tlb")

        # -- recovery ladder ------------------------------------------
        # (a) software MapID consistency check: the allocator knows which
        # MapID it put in the PTEs; a walk disagreeing means PTE corruption.
        walked = system.space.page_table.walk(tensor.va)
        if walked.map_id != tensor.map_id:
            report.detected += 1
            transient_faults += 1
            engine.note_fault(ResilientEngine.MAPPING)
            if pte_bit is not None:
                # repair: flip the same bit back, then drop TLB copies
                injector.corrupt_pte_map_id(system, tensor.va, bit=pte_bit)
            else:  # corruption of unknown provenance: remap is the cure
                report.silent += 1

        # (b) parity scrub of the mapping table (a real controller runs
        # this periodically; here it runs before every read burst)
        if table.verify_all():
            report.detected += 1
            transient_faults += 1
            engine.note_fault(ResilientEngine.MAPPING)
            # only this query's entry can be bad: reinstall the good copy
            table.repair(tensor.map_id, tensor.mapping)

        # (c) read back through ECC + the parity-checked mapping table
        corrected_before = ecc.total_corrected
        loaded: Optional[np.ndarray] = None
        for _attempt in range(3):
            try:
                loaded = tensor.load(np.uint16)
                break
            except UncorrectableEccError:
                report.detected += 1
                transient_faults += 1
                engine.note_fault(ResilientEngine.MEMORY)
                # recovery: rewrite the affected data from its source
                tensor.store(data)
            except MappingIntegrityError:
                report.detected += 1
                transient_faults += 1
                engine.note_fault(ResilientEngine.MAPPING)
                table.repair(tensor.map_id, tensor.mapping)
        report.corrected += ecc.total_corrected - corrected_before

        # (d) ground truth: anything still wrong got past every defense
        if loaded is not None and zlib.crc32(loaded.tobytes()) != truth_crc:
            report.silent += 1

        # (e) free; a swallowed shootdown leaves a stale TLB entry that
        # the post-free coherence check catches and flushes (a lost
        # shootdown at an uncached VA corrupts nothing: benign)
        tensor.free()
        if tlb.lookup(tensor.va) is not None:
            report.detected += 1
            tlb.flush()

        # -- price the query through the resilient engine -------------
        result = engine.run_query(
            spec.policy,
            spec.prefill_len,
            spec.decode_len,
            transient_faults=transient_faults,
        )
        report.queries.append(result)
        if result.served and loaded is not None:
            report.served += 1
        else:
            report.aborted += 1

    report.fault_log_len = len(injector.log)
    report.health = engine.monitor.summary()
    injector.detach()
    registry = report.metrics
    ladder = registry.counter(
        "campaign_faults_total", "recovery-ladder outcomes",
        labelnames=("bucket",),
    )
    for bucket, count in (
        ("corrected", report.corrected),
        ("detected", report.detected),
        ("silent", report.silent),
    ):
        ladder.inc(count, bucket=bucket)
    outcomes = registry.counter(
        "campaign_queries_total", "query outcomes", labelnames=("status",)
    )
    outcomes.inc(report.served, status="served")
    outcomes.inc(report.aborted, status="aborted")
    registry.gauge(
        "campaign_availability", "fraction of queries served"
    ).set(report.availability)
    ttlt_h = registry.histogram("campaign_ttlt_ns", "per-query TTLT")
    for query in report.queries:
        ttlt_h.observe(query.ttlt_ns)
    return report
