"""Crash-recovery campaign: seeded crash injection over the MapID journal.

Each injection arms the :class:`~repro.reliability.faults.FaultInjector`
with one journal crash site around the matching allocator operation
(alloc, free, or phase switch) on a functional :class:`PimSystem`
(:meth:`~repro.reliability.faults.FaultInjector.crash_during`), lets
the :class:`~repro.core.journal.InjectedCrash` rip through it, then runs
:func:`~repro.core.journal.recover` and **audits the recovered state**:

* every live PIM mapping-table entry passes the PR 2 static verifier
  (:func:`~repro.analysis.mapverify.verify_pim_mapping`);
* mapping-table refcounts exactly match the live tensor population —
  no leaked MapID slots, no dangling references;
* the mapped-area set exactly matches the live tensors;
* every live tensor's bytes still CRC-match their ground truth (the
  phase-switch staging copy must survive the crash).

The sweep cycles through all :data:`~repro.core.journal.CRASH_SITES`
evenly, so ``n_injections=500`` hits every site 50 times with varied
shapes, data, and switch states.  One ``random.Random(seed)`` drives all
choices: a failing injection is reproducible from (seed, index).
"""

from __future__ import annotations

import random
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.mapverify import verify_pim_mapping
from repro.core.journal import CRASH_SITES, MIGRATE_CRASH_SITES, MapJournal
from repro.core.pimalloc import PimSystem, PimTensor
from repro.core.selector import MatrixConfig
from repro.dram.config import DramOrganization
from repro.kvcache.block import BlockRef
from repro.kvcache.pool import KV_CRASH_SITES, BlockPool, KvSpec, crash_pool, recover_pool
from repro.pim.config import PimConfig
from repro.reliability.campaign import TINY_CAMPAIGN_ORG
from repro.reliability.faults import FaultInjector

__all__ = ["CrashReport", "run_crash_campaign"]

#: matrix shapes cycled by the campaign (each fits one huge page on the
#: tiny geometry, so two live tensors plus a staging page fit in DRAM)
_SHAPES: Tuple[Tuple[int, int], ...] = ((16, 256), (8, 128), (32, 256))

#: live-tensor pool bound: TINY_CAMPAIGN_ORG holds 4 huge pages and a
#: phase switch needs one spare for its staging copy
_MAX_LIVE = 2


@dataclass
class CrashReport:
    """Aggregate outcome of one crash-recovery campaign."""

    seed: int
    n_injections: int = 0
    crashes_by_site: Dict[str, int] = field(default_factory=dict)
    rolled_back: int = 0
    rolled_forward: int = 0
    no_ops: int = 0
    #: audit failures (each is one injection where the audit tripped)
    verifier_findings: int = 0
    refcount_mismatches: int = 0
    area_mismatches: int = 0
    crc_mismatches: int = 0
    leaked_map_ids: int = 0
    #: did the post-campaign teardown reach the pristine state?
    final_clean: bool = False
    failures: List[str] = field(default_factory=list)
    #: KV block-pool campaign (see repro.kvcache): separate injector,
    #: journal, and counters so the MapID sweep stays byte-identical
    kv_injections: int = 0
    kv_crashes_by_site: Dict[str, int] = field(default_factory=dict)
    kv_rolled_back: int = 0
    kv_rolled_forward: int = 0
    kv_no_ops: int = 0
    kv_leaked_refcounts: int = 0
    kv_audit_failures: int = 0
    kv_final_clean: bool = True
    #: adaptive-migration campaign (two-phase MIGRATE transactions on an
    #: AdaptiveArena): separate injector and system, counters below
    migration_injections: int = 0
    migration_crashes_by_site: Dict[str, int] = field(default_factory=dict)
    migration_rolled_back: int = 0
    migration_rolled_forward: int = 0
    #: recoveries that left a page range half-migrated (the invariant the
    #: two-phase MIGRATE record exists to rule out)
    torn_mappings: int = 0
    migration_audit_failures: int = 0
    migration_final_clean: bool = True

    @property
    def ok(self) -> bool:
        """Every audit passed, every sweep ended clean, and no injection
        logged a failure (an armed crash that never fired is one)."""
        return (
            not self.failures
            and self.verifier_findings == 0
            and self.refcount_mismatches == 0
            and self.area_mismatches == 0
            and self.crc_mismatches == 0
            and self.leaked_map_ids == 0
            and self.final_clean
            and self.kv_leaked_refcounts == 0
            and self.kv_audit_failures == 0
            and self.kv_final_clean
            and self.torn_mappings == 0
            and self.migration_audit_failures == 0
            and self.migration_final_clean
        )

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "n_injections": self.n_injections,
            "crashes_by_site": dict(sorted(self.crashes_by_site.items())),
            "rolled_back": self.rolled_back,
            "rolled_forward": self.rolled_forward,
            "no_ops": self.no_ops,
            "verifier_findings": self.verifier_findings,
            "refcount_mismatches": self.refcount_mismatches,
            "area_mismatches": self.area_mismatches,
            "crc_mismatches": self.crc_mismatches,
            "leaked_map_ids": self.leaked_map_ids,
            "final_clean": self.final_clean,
            "kv_injections": self.kv_injections,
            "kv_crashes_by_site": dict(sorted(self.kv_crashes_by_site.items())),
            "kv_rolled_back": self.kv_rolled_back,
            "kv_rolled_forward": self.kv_rolled_forward,
            "kv_no_ops": self.kv_no_ops,
            "kv_leaked_refcounts": self.kv_leaked_refcounts,
            "kv_audit_failures": self.kv_audit_failures,
            "kv_final_clean": self.kv_final_clean,
            "migration_injections": self.migration_injections,
            "migration_crashes_by_site": dict(
                sorted(self.migration_crashes_by_site.items())
            ),
            "migration_rolled_back": self.migration_rolled_back,
            "migration_rolled_forward": self.migration_rolled_forward,
            "torn_mappings": self.torn_mappings,
            "migration_audit_failures": self.migration_audit_failures,
            "migration_final_clean": self.migration_final_clean,
            "failures": list(self.failures[:20]),
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = [
            f"crash campaign: seed={self.seed} injections={self.n_injections}",
            "crashes by site : "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.crashes_by_site.items())),
            f"rolled back     : {self.rolled_back}",
            f"rolled forward  : {self.rolled_forward}",
            f"no-ops          : {self.no_ops}",
            f"verifier errors : {self.verifier_findings}",
            f"refcount errors : {self.refcount_mismatches}",
            f"area errors     : {self.area_mismatches}",
            f"CRC errors      : {self.crc_mismatches}",
            f"leaked MapIDs   : {self.leaked_map_ids}",
            f"final clean     : {self.final_clean}",
        ]
        if self.kv_injections:
            lines += [
                f"kv injections   : {self.kv_injections} ("
                + ", ".join(
                    f"{k}={v}" for k, v in sorted(self.kv_crashes_by_site.items())
                )
                + ")",
                f"kv recovery     : {self.kv_rolled_back} rolled back, "
                f"{self.kv_rolled_forward} rolled forward, "
                f"{self.kv_no_ops} no-ops",
                f"kv leaked refs  : {self.kv_leaked_refcounts}",
                f"kv audit errors : {self.kv_audit_failures}",
                f"kv final clean  : {self.kv_final_clean}",
            ]
        if self.migration_injections:
            lines += [
                f"mig injections  : {self.migration_injections} ("
                + ", ".join(
                    f"{k}={v}"
                    for k, v in sorted(self.migration_crashes_by_site.items())
                )
                + ")",
                f"mig recovery    : {self.migration_rolled_back} rolled back, "
                f"{self.migration_rolled_forward} rolled forward",
                f"torn mappings   : {self.torn_mappings}",
                f"mig audit errors: {self.migration_audit_failures}",
                f"mig final clean : {self.migration_final_clean}",
            ]
        lines.append(f"verdict         : {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)


@dataclass
class _Live:
    tensor: PimTensor
    data: np.ndarray
    crc: int


def _audit(
    system: PimSystem,
    live: List[_Live],
    pim: PimConfig,
    report: CrashReport,
    label: str,
) -> None:
    """Check the recovered state against the live-tensor ground truth."""
    table = system.controller.table

    for entry in live:
        findings = verify_pim_mapping(entry.tensor.mapping, system.org, pim)
        if findings:
            report.verifier_findings += 1
            report.failures.append(
                f"{label}: verifier found {len(findings)} issue(s) on "
                f"map_id {entry.tensor.map_id}"
            )

    expected = Counter(entry.tensor.map_id for entry in live)
    expected[0] += 1  # the conventional mapping's baseline reference
    actual = table.refcounts()
    if dict(expected) != dict(actual):
        report.refcount_mismatches += 1
        report.failures.append(f"{label}: refcounts {actual} != expected {dict(expected)}")
    leaked = set(table.live_ids()) - {entry.tensor.map_id for entry in live} - {0}
    if leaked:
        report.leaked_map_ids += len(leaked)
        report.failures.append(f"{label}: leaked MapIDs {sorted(leaked)}")

    expected_vas = {entry.tensor.va for entry in live}
    actual_vas = set(system.space.areas.keys())
    if expected_vas != actual_vas:
        report.area_mismatches += 1
        report.failures.append(
            f"{label}: mapped areas {sorted(actual_vas)} != {sorted(expected_vas)}"
        )

    for entry in live:
        loaded = entry.tensor.load(entry.data.dtype)
        if zlib.crc32(loaded.tobytes()) != entry.crc:
            report.crc_mismatches += 1
            report.failures.append(
                f"{label}: data CRC mismatch on map_id {entry.tensor.map_id}"
            )


def _run_kv_campaign(report: CrashReport, kv_injections: int, seed: int) -> None:
    """Seeded crash sweep over the KV block pool's journal.

    Uses its own :class:`MapJournal` and :class:`FaultInjector` (seeded
    ``seed + 1``) so the MapID campaign above reproduces byte-identically
    whether or not this runs.  Each injection is one
    :func:`~repro.kvcache.pool.crash_pool`, as a fleet device kill is.
    After every recovery the pool is audited and its refcounts reconciled
    against the held refs — any block alive without a holder is a leaked
    refcount."""
    journal = MapJournal()
    injector = FaultInjector(seed + 1)
    journal.fault_hook = injector
    pool = BlockPool(8, KvSpec(block_tokens=4, kv_dim=128), journal=journal)
    rng = random.Random(seed + 1)
    held: List[BlockRef] = []

    def kv_audit(label: str) -> None:
        violations = pool.audit()
        if violations:
            report.kv_audit_failures += 1
            report.failures.append(f"{label}: pool audit: {violations[0]}")
        expected = {ref.block_id: 1 for ref in held}
        actual = pool.refcounts()
        if expected != actual:
            leaked = [
                bid for bid, n in actual.items() if expected.get(bid, 0) != n
            ]
            report.kv_leaked_refcounts += max(len(leaked), 1)
            report.failures.append(
                f"{label}: live refcounts {actual} != held {expected}"
            )

    for index in range(kv_injections):
        site = KV_CRASH_SITES[index % len(KV_CRASH_SITES)]
        label = f"kv injection {index} site {site}"
        if not crash_pool(pool, injector, site, held, rng.randrange):
            report.failures.append(f"{label}: armed crash never fired")
            continue
        report.kv_injections += 1
        report.kv_crashes_by_site[site] = (
            report.kv_crashes_by_site.get(site, 0) + 1
        )

        recovery = recover_pool(pool)
        report.kv_rolled_back += recovery.rolled_back
        report.kv_rolled_forward += recovery.rolled_forward
        report.kv_no_ops += sum(
            1 for a in recovery.actions if a.resolution == "no-op"
        )
        kv_audit(label)
        journal.truncate_committed()

    for ref in held:
        pool.free(ref)
    held.clear()
    report.kv_final_clean = pool.used == 0 and not pool.audit()


def _run_migration_campaign(
    report: CrashReport, migration_injections: int, seed: int
) -> None:
    """Seeded crash sweep over two-phase MIGRATE transactions.

    Runs on its own :class:`~repro.adaptive.arena.AdaptiveArena` with its
    own :class:`FaultInjector` (seeded ``seed + 2``), so the MapID and KV
    campaigns reproduce byte-identically whether or not this runs.  Each
    injection picks a page range, a target MapID, and a crash site —
    varying the ``after=`` depth on the per-page and cleanup sites so the
    crash lands at every stage of the PTE walk — then recovers and audits
    the **never-torn invariant**: every page of the migrated range
    carries either its old mapping or the new one, uniformly, with
    refcounts, areas, and the arena CRC reconciled (the AD003 audit)."""
    from repro.adaptive.arena import AdaptiveArena

    arena = AdaptiveArena(seed=seed + 2, name="chaos/arena")
    injector = FaultInjector(seed + 2).attach(arena.system)
    rng = random.Random(seed + 2)
    n_pages = arena.n_pages

    for index in range(migration_injections):
        site = MIGRATE_CRASH_SITES[index % len(MIGRATE_CRASH_SITES)]
        page_start = rng.randrange(n_pages)
        page_count = rng.randrange(1, n_pages - page_start + 1)
        in_range = set(arena.page_k[page_start:page_start + page_count])
        target_k = rng.choice(
            [k for k in range(arena.max_map_id + 1) if k not in in_range]
        )
        # vary the crash depth on the per-page site, so the PTE walk dies
        # on every possible page (cleanup fires once per release plus a
        # final time, but a range migration may have zero releases, so
        # only depth 0 is always armed safely there)
        after = rng.randrange(page_count) if site == "migrate:page" else 0
        label = (
            f"migration injection {index} site {site} after={after} "
            f"pages [{page_start}, {page_start + page_count}) -> k={target_k}"
        )

        before_slots = arena.system.space.area_page_map_ids(arena.tensor.va)
        if not injector.crash_during(
            site,
            lambda: arena.system.allocator.migrate_pages(
                arena.tensor, target_k,
                page_start=page_start, page_count=page_count,
            ),
            after=after,
        ):
            report.failures.append(f"{label}: armed crash never fired")
            continue
        report.migration_injections += 1
        report.migration_crashes_by_site[site] = (
            report.migration_crashes_by_site.get(site, 0) + 1
        )

        recovery = arena.system.recover()
        action = next((a for a in recovery.actions if a.op == "migrate"), None)
        if action is None:
            report.migration_audit_failures += 1
            report.failures.append(f"{label}: recovery saw no migrate txn")
            continue
        forward = action.resolution == "rolled-forward"
        if forward:
            report.migration_rolled_forward += 1
            for page in range(page_start, page_start + page_count):
                arena.page_k[page] = target_k
        else:
            report.migration_rolled_back += 1

        # never-torn: outside the range nothing moved; inside, either
        # every page kept its old slot or every page carries the one
        # slot the recovery promoted
        after_slots = arena.system.space.area_page_map_ids(arena.tensor.va)
        expected = list(before_slots)
        if forward:
            promoted = action.detail["promoted_map_id"]
            expected[page_start:page_start + page_count] = [promoted] * page_count
        if after_slots != expected:
            report.torn_mappings += 1
            report.failures.append(
                f"{label}: torn mapping after "
                f"{action.resolution}: slots {after_slots} != {expected}"
            )
        problems = arena.verify(
            pages=range(page_start, page_start + page_count)
        )
        if problems:
            report.migration_audit_failures += 1
            report.failures.append(f"{label}: {problems[0]}")
        arena.system.journal.truncate_committed()

    report.migration_final_clean = not arena.verify()
    injector.detach()


def run_crash_campaign(
    n_injections: int = 500,
    seed: int = 0,
    org: Optional[DramOrganization] = None,
    pim: Optional[PimConfig] = None,
    kv_injections: int = 0,
    migration_injections: int = 0,
) -> CrashReport:
    """Run *n_injections* seeded crash injections; see the module docstring.

    With ``kv_injections > 0`` an independent sweep over the KV block
    pool's :data:`~repro.kvcache.pool.KV_CRASH_SITES` runs afterwards
    (see :func:`_run_kv_campaign`); with ``migration_injections > 0``, a
    sweep over the adaptive arena's two-phase MIGRATE transactions
    (:data:`~repro.core.journal.MIGRATE_CRASH_SITES`; see
    :func:`_run_migration_campaign`)."""
    if n_injections < 0:
        raise ValueError("n_injections must be >= 0")
    if kv_injections < 0:
        raise ValueError("kv_injections must be >= 0")
    if migration_injections < 0:
        raise ValueError("migration_injections must be >= 0")
    if n_injections == 0 and kv_injections == 0 and migration_injections == 0:
        raise ValueError("at least one injection count must be positive")
    campaign_org = org if org is not None else TINY_CAMPAIGN_ORG
    if pim is None:
        from repro.pim.config import aim_config_for

        pim = aim_config_for(campaign_org)
    system = PimSystem.build(campaign_org, pim, functional=True, journal=True)
    injector = FaultInjector(seed).attach(system)
    rng = random.Random(seed)
    data_rng = np.random.default_rng(seed)

    report = CrashReport(seed=seed)
    live: List[_Live] = []

    def fresh_tensor() -> _Live:
        rows, cols = _SHAPES[rng.randrange(len(_SHAPES))]
        tensor = system.pimalloc(MatrixConfig(rows=rows, cols=cols, dtype_bytes=2))
        data = data_rng.integers(0, 1 << 16, size=(rows, cols), dtype=np.uint16)
        tensor.store(data)
        return _Live(tensor=tensor, data=data, crc=zlib.crc32(data.tobytes()))

    def operate(op: str) -> None:
        if op == "alloc":
            rows, cols = _SHAPES[rng.randrange(len(_SHAPES))]
            system.pimalloc(MatrixConfig(rows=rows, cols=cols, dtype_bytes=2))
        elif op == "free":
            live[-1].tensor.free()
        else:  # switch
            system.allocator.switch_mapping(live[-1].tensor)

    for index in range(n_injections):
        site = CRASH_SITES[index % len(CRASH_SITES)]
        op = site.split(":", 1)[0]
        label = f"injection {index} site {site}"

        # stage the pool for the op (no crashes armed yet)
        if op == "alloc" and len(live) >= _MAX_LIVE:
            victim = live.pop(rng.randrange(len(live)))
            victim.tensor.free()
        if op in ("free", "switch") and not live:
            live.append(fresh_tensor())

        if not injector.crash_during(site, lambda: operate(op)):
            report.failures.append(f"{label}: armed crash never fired")
            continue
        report.n_injections += 1
        report.crashes_by_site[site] = report.crashes_by_site.get(site, 0) + 1

        recovery = system.recover()
        report.rolled_back += recovery.rolled_back
        report.rolled_forward += recovery.rolled_forward
        report.no_ops += sum(1 for a in recovery.actions if a.resolution == "no-op")

        # reconcile the live pool with what recovery decided
        if op == "free":
            # frees roll forward: the tensor is gone either way
            live.pop()
        elif op == "switch":
            entry = live[-1]
            action = next(
                (a for a in recovery.actions if a.op == "switch"), None
            )
            if action is not None and action.resolution == "rolled-forward":
                new_map_id = action.detail["new_map_id"]
                entry.tensor.map_id = new_map_id
                entry.tensor.mapping = system.controller.table[new_map_id]
            # rolled-back: the old handle is still accurate
        # alloc rolled back: nothing to add

        _audit(system, live, pim, report, label)
        if system.journal is not None:
            system.journal.truncate_committed()  # log compaction each round

    # teardown must reach the pristine state: no areas, only the
    # conventional mapping left with its baseline reference
    for entry in live:
        entry.tensor.free()
    live.clear()
    table = system.controller.table
    report.final_clean = (
        not system.space.areas
        and table.refcounts() == {0: 1}
    )
    injector.detach()

    if kv_injections:
        _run_kv_campaign(report, kv_injections, seed)
    if migration_injections:
        _run_migration_campaign(report, migration_injections, seed)
    return report
