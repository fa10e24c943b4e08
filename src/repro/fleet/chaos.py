"""The kill-K-devices chaos campaign.

Hundreds of seeded device losses and recoveries against a live fleet
under multi-turn traffic, with the full audit battery after every loss:

* each kill drives the dead device's KV journal into an armed crash
  site (cycling all of :data:`~repro.kvcache.pool.KV_CRASH_SITES`),
  recovers, and reconciles refcounts — **zero findings** tolerated;
* every request the workload offered must reach exactly one terminal
  outcome — served on some device, or accounted as shed during failover
  — **none silently lost**;
* every declared KV crash site must actually fire (the fleet-level
  extension of the crash-site completeness oracle);
* at least one request must fail over, or the other oracles checked
  nothing: a campaign too short to offer traffic fails.

Determinism discipline: the kill schedule rides its **own** RNG stream
(``random.Random(spec.seed * 9973 + 65537)``), disjoint from the
workload stream and from every device's phase-fault substream.  Running
the campaign therefore perturbs no existing bench: the serving and
chaos BENCH baselines reproduce byte-identically whether or not a fleet
campaign ran in the same process.

The schedule is built kill-by-kill, round-robin over the catalog with a
uniform-jittered gap wider than the recovery dwell, so every scheduled
kill lands on a revived (killable) device; when the jitter would still
land on a down device, the kill retargets to the lowest-id alive one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fleet.runtime import FleetConfig, FleetReport, FleetRuntime
from repro.fleet.workloads import DIURNAL, shaped_workload
from repro.kvcache.pool import KV_CRASH_SITES
from repro.llm.datasets import ALPACA_LIKE
from repro.serving.runtime import conservation_findings
from repro.serving.workload import TenantSpec

__all__ = ["FleetChaosReport", "FleetChaosSpec", "run_fleet_chaos"]


@dataclass(frozen=True)
class FleetChaosSpec:
    """One campaign's shape."""

    n_devices: int = 4
    kills: int = 300
    seed: int = 0
    #: mean gap between consecutive kills (fleet-wide)
    kill_gap_ms: float = 20.0
    #: quarantine dwell before the timed revive; the per-device kill
    #: cadence is ``n_devices * kill_gap_ms``, which must exceed this
    recovery_ms: float = 10.0
    qps: float = 200.0
    deadline_ms: float = 400.0
    mean_turns: float = 3.0
    queue_capacity: int = 8
    shed_policy: str = "drop-oldest"

    def __post_init__(self) -> None:
        if self.n_devices <= 1:
            raise ValueError("a chaos campaign needs at least 2 devices")
        if self.kills < len(KV_CRASH_SITES):
            raise ValueError(
                f"kills must be at least {len(KV_CRASH_SITES)}: the oracle "
                f"needs every KV crash site to fire, one per kill in turn"
            )
        if self.kill_gap_ms <= 0 or self.recovery_ms <= 0:
            raise ValueError("kill_gap_ms and recovery_ms must be positive")
        if self.n_devices * self.kill_gap_ms * 0.5 <= self.recovery_ms:
            raise ValueError(
                "per-device kill cadence must exceed recovery_ms "
                "(raise kill_gap_ms or lower recovery_ms)"
            )

    @property
    def horizon_ms(self) -> float:
        """Workload horizon: arrivals span the whole kill window."""
        return self.kills * self.kill_gap_ms


@dataclass
class FleetChaosReport:
    """Campaign outcome plus the oracle verdicts."""

    spec: FleetChaosSpec
    kills_applied: int = 0
    revives_applied: int = 0
    retargeted: int = 0
    crashes_by_site: Dict[str, int] = field(default_factory=dict)
    offered: int = 0
    served: int = 0
    shed: int = 0
    unserved: int = 0
    failover_requests: int = 0
    audit_findings: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    fleet: Optional[FleetReport] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict:
        return {
            "seed": self.spec.seed,
            "n_devices": self.spec.n_devices,
            "kills_requested": self.spec.kills,
            "kills_applied": self.kills_applied,
            "revives_applied": self.revives_applied,
            "retargeted": self.retargeted,
            "crashes_by_site": dict(self.crashes_by_site),
            "offered": self.offered,
            "served": self.served,
            "shed": self.shed,
            "unserved": self.unserved,
            "failover_requests": self.failover_requests,
            "audit_findings": list(self.audit_findings),
            "failures": list(self.failures),
            "ok": self.ok,
        }


def _build_schedule(
    spec: FleetChaosSpec, rng: random.Random
) -> Tuple[List[Tuple[float, int]], int]:
    """Round-robin kill schedule with jittered gaps; returns the sorted
    ``(t_ns, device_id)`` list and how many kills were retargeted off a
    device still inside its recovery dwell."""
    gap_ns = spec.kill_gap_ms * 1e6
    recovery_ns = spec.recovery_ms * 1e6
    down_until = [0.0] * spec.n_devices
    schedule: List[Tuple[float, int]] = []
    retargeted = 0
    t = gap_ns
    for index in range(spec.kills):
        # uniform jitter in [0.5, 1.5) gaps keeps order but varies spacing
        t += gap_ns * (rng.random() - 0.5)
        target = index % spec.n_devices
        if down_until[target] > t:
            alive = [
                d for d in range(spec.n_devices) if down_until[d] <= t
            ]
            if not alive:
                # wait for the first revive, landing strictly *after* its
                # timestamp: a kill scheduled at exactly the revive instant
                # would depend on the runtime's tie-breaking to apply
                t = min(down_until) + 1.0
                alive = [
                    d for d in range(spec.n_devices) if down_until[d] <= t
                ]
            target = alive[0]
            retargeted += 1
        schedule.append((t, target))
        down_until[target] = t + recovery_ns
        t += gap_ns
    return sorted(schedule), retargeted


def run_fleet_chaos(spec: FleetChaosSpec) -> FleetChaosReport:
    """Run one campaign; the report's ``failures`` list is the verdict
    (empty = every oracle passed)."""
    report = FleetChaosReport(spec=spec)
    kill_rng = random.Random(spec.seed * 9973 + 65537)
    schedule, report.retargeted = _build_schedule(spec, kill_rng)

    config = FleetConfig(
        n_devices=spec.n_devices,
        seed=spec.seed,
        queue_capacity=spec.queue_capacity,
        shed_policy=spec.shed_policy,
        recovery_ms=spec.recovery_ms,
    )
    runtime = FleetRuntime(config)
    tenants = (
        TenantSpec(
            name="chat",
            dataset=ALPACA_LIKE,
            policy="facil",
            qps=spec.qps,
            deadline_ms=spec.deadline_ms,
            mean_turns=spec.mean_turns,
        ),
    )
    workload = shaped_workload(
        tenants, spec.horizon_ms, shape=DIURNAL, seed=spec.seed
    )
    fleet = runtime.run(workload, kills=schedule)
    report.fleet = fleet
    report.kills_applied = fleet.kills
    report.revives_applied = fleet.revives
    report.offered = fleet.offered
    report.served = fleet.served
    report.shed = fleet.shed
    report.unserved = fleet.unserved
    report.failover_requests = sum(1 for o in fleet.outcomes if o.failovers)
    report.audit_findings = list(fleet.audit_findings)
    for device in runtime.devices:
        for site in device.kill_sites:
            report.crashes_by_site[site] = report.crashes_by_site.get(site, 0) + 1

    # -- oracles ---------------------------------------------------------------
    if report.kills_applied != spec.kills:
        report.failures.append(
            f"{report.kills_applied} of {spec.kills} scheduled kills applied"
        )
    if report.audit_findings:
        report.failures.append(
            f"{len(report.audit_findings)} post-recovery audit finding(s): "
            f"{report.audit_findings[0]}"
        )
    report.failures.extend(
        conservation_findings((r.req_id for r in workload), fleet.outcomes)
    )
    unfired = [s for s in KV_CRASH_SITES if not report.crashes_by_site.get(s)]
    if unfired:
        report.failures.append(
            f"KV crash site(s) never fired: {', '.join(unfired)}"
        )
    if not report.failover_requests:
        report.failures.append(
            f"no request failed over ({report.offered} offered): the "
            f"campaign's oracles checked nothing across a device loss"
        )
    return report
