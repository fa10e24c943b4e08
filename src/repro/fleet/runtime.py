"""The fleet event loop: N failure domains, one virtual clock.

:class:`FleetRuntime` merges four event sources onto one virtual
timeline — request arrivals, per-device service completions, timed
kill/revive events, and the autoscaler cadence — and advances whichever
comes first.  Devices never share state: each serves strictly from its
own queue on its own SoC/PIM timelines, so the fleet loop is pure
scheduling glue plus accounting.

**Failover** (preempt-and-recompute): a kill at time *t* drains the dead
device's admission queue and preempts any request whose service window
straddles *t*; every refugee is offered back through the router onto a
survivor, where it recomputes from scratch (the dead device's journal
recovery already proved no KV state needed to survive).  A refugee with
no routable device left, or rejected by the survivor's own admission
policy, is accounted as shed — the conservation law
(:func:`~repro.serving.runtime.conservation_findings`, behind
:attr:`FleetReport.none_lost` and the chaos campaign's oracle) is that
**every offered request reaches exactly one terminal outcome**: served,
served-degraded, rejected, dropped, shed-unroutable, timed-out, or
aborted.  Nothing is silently lost, including mid-flight work on a
killed device.

A device **quarantined by sustained fault pressure** (``update_health``
crossing the quarantine watermark mid-run, no kill event involved) takes
the same failover edge: its admitted queue drains through the router
onto survivors and a timed revive (``recovery_ms``) returns it to
rotation — exactly the ``revive`` edge the device docstring draws.

Determinism: arrivals ride the workload stream; each device's phase
faults ride its own derived substream; kills ride the campaign's
separate stream (see :mod:`repro.fleet.chaos`).  Ties across devices
break by device id; ties across event kinds break timed-events-first so
a kill at *t* always beats a service starting at *t*, and revives
process before kills at the same instant so a kill scheduled exactly at
a revive timestamp still applies to the freshly revived device.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fleet.autoscaler import Autoscaler
from repro.fleet.device import DeviceSpec, DeviceState, FleetDevice, Preempted
from repro.fleet.router import FleetRouter
from repro.platforms.specs import ALL_PLATFORMS
from repro.serving.device import DeviceSettings
from repro.serving.runtime import (
    DROPPED,
    REJECTED,
    SHED_UNROUTABLE,
    TERMINAL_STATUSES,
    OutcomeCounts,
    RequestOutcome,
    conservation_findings,
    offered_ids,
)
from repro.serving.workload import Request

__all__ = [
    "SHED_UNROUTABLE",
    "TERMINAL_STATUSES",
    "FleetConfig",
    "FleetReport",
    "FleetRuntime",
    "build_fleet",
]


@dataclass(frozen=True)
class FleetConfig:
    """Knobs for one fleet run."""

    n_devices: int = 4
    standby_devices: int = 0  # tail of the catalog parked for scale-up
    seed: int = 0
    queue_capacity: int = 8
    shed_policy: str = "reject"
    spill_backlog_ns: float = 2e9
    pim_fault_rate: float = 0.0
    mapping_fault_rate: float = 0.0
    soc_fault_rate: float = 0.0
    kv_blocks: int = 64
    block_tokens: int = 16
    #: quarantined-device dwell time before the timed revive
    recovery_ms: float = 50.0
    autoscale: bool = False
    autoscale_interval_ms: float = 100.0
    autoscale_high_backlog_ns: float = 2e9
    autoscale_low_backlog_ns: float = 2e8
    autoscale_patience: int = 2

    def __post_init__(self) -> None:
        if self.n_devices <= 0:
            raise ValueError("n_devices must be positive")
        if not 0 <= self.standby_devices < self.n_devices:
            raise ValueError("need 0 <= standby_devices < n_devices")
        if self.recovery_ms <= 0:
            raise ValueError("recovery_ms must be positive")


@dataclass
class FleetReport(OutcomeCounts):
    """Fleet-wide aggregation plus per-device telemetry lanes."""

    config: FleetConfig
    outcomes: List[RequestOutcome] = field(default_factory=list)
    duration_ns: float = 0.0
    devices: List[Dict] = field(default_factory=list)
    router: Dict = field(default_factory=dict)
    autoscaler: Optional[Dict] = None
    kills: int = 0
    revives: int = 0
    #: devices quarantined by sustained fault pressure (not by a kill)
    health_quarantines: int = 0
    audit_findings: List[str] = field(default_factory=list)
    #: the ids the workload actually offered, recorded by the runtime so
    #: ``none_lost`` can detect a request that got *no* outcome at all
    offered_req_ids: List[int] = field(default_factory=list)

    @property
    def offered(self) -> int:
        return len(self.offered_req_ids)

    @property
    def shed(self) -> int:
        return self._count(REJECTED, DROPPED, SHED_UNROUTABLE)

    @property
    def failovers(self) -> int:
        return sum(o.failovers for o in self.outcomes)

    @property
    def none_lost(self) -> bool:
        """The conservation law (:func:`~repro.serving.runtime.
        conservation_findings`) against the offered ids, so a stranded
        request with *no* outcome fails it rather than slipping past a
        uniqueness check."""
        return not conservation_findings(self.offered_req_ids, self.outcomes)

    @property
    def ok(self) -> bool:
        return self.none_lost and not self.audit_findings

    def to_dict(self) -> Dict:
        return {
            "seed": self.config.seed,
            "n_devices": self.config.n_devices,
            "duration_ms": self.duration_ns / 1e6,
            "offered": self.offered,
            "served": self.served,
            "served_degraded": self.served_degraded,
            "shed": self.shed,
            "rejected": self.rejected,
            "dropped": self.dropped,
            "shed_unroutable": self._count(SHED_UNROUTABLE),
            "timed_out": self.timed_out,
            "aborted": self.aborted,
            "unserved": self.unserved,
            "failovers": self.failovers,
            "kills": self.kills,
            "revives": self.revives,
            "health_quarantines": self.health_quarantines,
            "goodput_qps": self.goodput_qps,
            "slo_attainment": self.slo_attainment,
            "ttft": self.ttft.to_dict(),
            "router": dict(self.router),
            "autoscaler": self.autoscaler,
            "devices": [dict(d) for d in self.devices],
            "audit_findings": list(self.audit_findings),
            "none_lost": self.none_lost,
            "ok": self.ok,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        from repro.telemetry.render import render_text

        d = self.to_dict()
        header = (
            f"fleet run: seed={d['seed']} devices={d['n_devices']} "
            f"duration={d['duration_ms']:.1f} ms"
        )
        pairs = [
            ("offered", d["offered"]),
            ("served", d["served"]),
            ("shed", d["shed"]),
            ("unserved", d["unserved"]),
            ("failovers", d["failovers"]),
            ("kills", d["kills"]),
            ("health quarantines", d["health_quarantines"]),
            ("goodput", f"{d['goodput_qps']:.1f} qps"),
            ("p99 TTFT", f"{d['ttft']['p99_ms']:.2f} ms"),
            ("none lost", d["none_lost"]),
            ("ok", d["ok"]),
        ]
        lanes = [
            f"  dev{lane['device_id']} [{lane['platform']}] "
            f"state={lane['state']} served={lane['served']} "
            f"kills={lane['kills']} prefix_hits={lane['prefix_hits']}"
            for lane in d["devices"]
        ]
        return "\n".join([render_text(header, pairs)] + lanes)


def build_fleet(config: FleetConfig) -> List[FleetDevice]:
    """Instantiate the device catalog on one settings record,
    heterogeneous across the Table II platforms (cycled in order).  The
    last ``standby_devices`` members start parked in STANDBY."""
    settings = DeviceSettings(
        queue_capacity=config.queue_capacity,
        shed_policy=config.shed_policy,
        pim_fault_rate=config.pim_fault_rate,
        mapping_fault_rate=config.mapping_fault_rate,
        soc_fault_rate=config.soc_fault_rate,
        kv_blocks=config.kv_blocks,
        block_tokens=config.block_tokens,
    )
    devices: List[FleetDevice] = []
    for device_id in range(config.n_devices):
        spec = DeviceSpec(
            device_id=device_id,
            platform=ALL_PLATFORMS[device_id % len(ALL_PLATFORMS)],
            settings=settings,
        )
        device = FleetDevice(spec, seed=config.seed)
        if device_id >= config.n_devices - config.standby_devices:
            device._move(DeviceState.STANDBY, 0.0)
        devices.append(device)
    return devices


class FleetRuntime:
    """Drive one fleet through a workload (see the module docstring)."""

    def __init__(
        self,
        config: FleetConfig,
        devices: Optional[List[FleetDevice]] = None,
        telemetry: Optional[object] = None,
    ) -> None:
        self.config = config
        self.devices = devices if devices is not None else build_fleet(config)
        self.by_id = {d.spec.device_id: d for d in self.devices}
        self.router = FleetRouter(
            self.devices, spill_backlog_ns=config.spill_backlog_ns
        )
        self.autoscaler = (
            Autoscaler(
                self.devices,
                interval_ms=config.autoscale_interval_ms,
                high_backlog_ns=config.autoscale_high_backlog_ns,
                low_backlog_ns=config.autoscale_low_backlog_ns,
                patience=config.autoscale_patience,
            )
            if config.autoscale
            else None
        )
        self.telemetry = telemetry

    # -- accounting helpers ----------------------------------------------------

    @staticmethod
    def _unroutable(
        request: Request, now_ns: float, device_id: int = -1
    ) -> RequestOutcome:
        return RequestOutcome(
            req_id=request.req_id,
            tenant=request.tenant,
            status=SHED_UNROUTABLE,
            policy_requested=request.policy,
            end_ns=now_ns,
            device_id=device_id,
        )

    def _admit(
        self,
        request: Request,
        now_ns: float,
        unroutable: List[RequestOutcome],
        failover: bool = False,
    ) -> None:
        """Route one request and offer it: the device records what its
        queue sheds, the fleet what no device could take."""
        device = self.router.route(request, now_ns, failover=failover)
        if device is None:
            unroutable.append(self._unroutable(request, now_ns))
        else:
            device.offer(request, now_ns)

    def _fail_over(
        self,
        refugees: List[Request],
        now_ns: float,
        unroutable: List[RequestOutcome],
        failovers: Dict[int, int],
    ) -> None:
        """Re-admit *refugees* on the survivors, one failover each."""
        for refugee in refugees:
            failovers[refugee.req_id] = failovers.get(refugee.req_id, 0) + 1
            self._admit(refugee, now_ns, unroutable, failover=True)

    def _fail_over_device(
        self,
        device: FleetDevice,
        now_ns: float,
        carried: List[Request],
        unroutable: List[RequestOutcome],
        failovers: Dict[int, int],
    ) -> None:
        """Re-admit a dead device's queue (plus any preempted in-flight
        requests) on the survivors."""
        refugees: List[Request] = list(carried)
        refugees.extend(device.queue.drain(now_ns))
        device.degraded.clear()
        self.router.on_device_lost(device.spec.device_id, now_ns)
        self._fail_over(refugees, now_ns, unroutable, failovers)

    # -- the loop --------------------------------------------------------------

    def run(
        self,
        requests: Sequence[Request],
        kills: Sequence[Tuple[float, int]] = (),
    ) -> FleetReport:
        """Serve *requests* while applying the timed *kills* schedule
        (each ``(t_ns, device_id)``; revive follows ``recovery_ms``
        later).  Returns the fleet report; every request in *requests*
        is guaranteed a terminal outcome.  A duplicated ``req_id``, a
        kill on a device outside the fleet and a kill at a non-finite
        time are refused up front with a :class:`ValueError`."""
        offered = offered_ids(requests)
        for t_ns, device_id in kills:
            if device_id not in self.by_id:
                raise ValueError(
                    f"kills: device_id {device_id} is not in the fleet "
                    f"(ids {sorted(self.by_id)})"
                )
            if not math.isfinite(t_ns):
                raise ValueError(f"kills: t_ns {t_ns} is not finite")
        cfg = self.config
        #: the fleet's own outcomes; each device keeps the ones it settles
        unroutable: List[RequestOutcome] = []
        #: req_id -> device losses it went through (final once settled)
        failovers: Dict[int, int] = {}
        pending = sorted(requests, key=lambda r: (r.arrival_ns, r.req_id))
        kill_schedule = sorted(kills)
        kill_idx = 0
        arrival_idx = 0
        revives: List[Tuple[float, int]] = []  # (t_ns, device_id), sorted
        #: requests preempted mid-service, parked until their device's
        #: kill event lands (the device stays routable until then, so
        #: re-admitting early would bounce them straight back onto it)
        carried: Dict[int, List[Request]] = {}
        kills_applied = 0
        revives_applied = 0
        health_quarantines = 0
        clock = 0.0
        #: latest end of a settled service
        served_end = 0.0
        next_autoscale = (
            self.autoscaler.interval_ns if self.autoscaler is not None else None
        )

        def next_kill_for(device_id: int) -> Optional[float]:
            for t, did in kill_schedule[kill_idx:]:
                if did == device_id:
                    return t
            return None

        while True:
            t_arrival = (
                pending[arrival_idx].arrival_ns
                if arrival_idx < len(pending)
                else float("inf")
            )
            t_kill = (
                kill_schedule[kill_idx][0]
                if kill_idx < len(kill_schedule)
                else float("inf")
            )
            t_revive = revives[0][0] if revives else float("inf")
            serve_dev: Optional[FleetDevice] = None
            t_serve = float("inf")
            for device in self.devices:
                if device.serving and len(device.queue):
                    est = device.est_start()
                    if est < t_serve:
                        t_serve, serve_dev = est, device
            t_real = min(t_arrival, t_kill, t_revive, t_serve)
            if t_real == float("inf"):
                break  # the autoscaler alone cannot keep the clock alive
            t_scale = next_autoscale if next_autoscale is not None else float("inf")
            t_next = min(t_real, t_scale)
            clock = max(clock, t_next)

            # timed events first: a kill at t beats a service starting at
            # t, and a revive at t beats a kill at t (so a kill scheduled
            # exactly at a revive timestamp hits the revived device
            # instead of being skipped as already-quarantined)
            if t_revive <= t_next and t_revive <= t_kill:
                t, device_id = revives.pop(0)
                if self.by_id[device_id].revive(t):
                    revives_applied += 1
                continue
            if t_kill <= t_next:
                t, device_id = kill_schedule[kill_idx]
                kill_idx += 1
                device = self.by_id[device_id]
                if not device.routable:
                    # skipped: a quarantined device is already down (the
                    # campaign retargets, not us), and killing a parked one
                    # would revive it into ACTIVE behind the autoscaler's
                    # back; what it preempted for this kill still fails over
                    self._fail_over(
                        carried.pop(device_id, []), t, unroutable, failovers
                    )
                    continue
                device.kill(t, kill_index=kills_applied)
                kills_applied += 1
                self._fail_over_device(
                    device, t, carried.pop(device_id, []), unroutable, failovers
                )
                revives.append((t + cfg.recovery_ms * 1e6, device_id))
                revives.sort()
                continue
            if t_scale <= t_next:
                if self.autoscaler is None or next_autoscale is None:
                    raise RuntimeError("autoscale event fired without an autoscaler")
                # every tick before the next fleet event, in one pass
                next_autoscale = self.autoscaler.advance(
                    next_autoscale, min(t_arrival, t_serve), min(t_kill, t_revive)
                )
                continue
            if t_arrival <= t_next:
                request = pending[arrival_idx]
                arrival_idx += 1
                self._admit(request, request.arrival_ns, unroutable)
                continue

            # service: run the earliest-startable queue head to completion
            if serve_dev is None:
                raise RuntimeError("service event selected with no serviceable device")
            result = serve_dev.serve_next(
                interrupt_ns=next_kill_for(serve_dev.spec.device_id)
            )
            if isinstance(result, Preempted):
                # park it; the pending kill event fails it over
                carried.setdefault(serve_dev.spec.device_id, []).append(
                    result.request
                )
            else:
                served_end = max(served_end, result.end_ns)
            if serve_dev.update_health(serve_dev.clock) is DeviceState.QUARANTINED:
                # sustained fault pressure quarantined the device: drain
                # its admitted queue (plus any just-parked preemption)
                # onto survivors now and schedule the timed revive —
                # the same edge as an injected kill, minus the crash
                health_quarantines += 1
                self._fail_over_device(
                    serve_dev, serve_dev.clock,
                    carried.pop(serve_dev.spec.device_id, []),
                    unroutable, failovers,
                )
                revives.append(
                    (serve_dev.clock + cfg.recovery_ms * 1e6,
                     serve_dev.spec.device_id)
                )
                revives.sort()

        # conservation guard: every kill event, applied or skipped, fails
        # over the requests preempted for it, so none should be left;
        # any that is gets accounted, never silently lost
        for device_id in sorted(carried):
            for refugee in carried[device_id]:
                failovers[refugee.req_id] = failovers.get(refugee.req_id, 0) + 1
                unroutable.append(self._unroutable(refugee, clock, device_id))

        end_ns = max(
            clock, served_end, pending[-1].arrival_ns if pending else 0.0
        )
        for device in self.devices:
            device.core.brownout.finish(end_ns)
        # every device's outcomes plus the fleet's own, each with the
        # failover count it settled with
        outcomes = unroutable + [o for d in self.devices for o in d.outcomes]
        outcomes = [
            replace(o, failovers=failovers[o.req_id])
            if o.req_id in failovers else o
            for o in outcomes
        ]
        outcomes.sort(key=lambda o: o.req_id)
        findings: List[str] = []
        for device in self.devices:
            findings.extend(
                f"dev{device.spec.device_id}: {finding}"
                for finding in device.audit_findings
            )
        report = FleetReport(
            config=cfg,
            outcomes=outcomes,
            duration_ns=end_ns,
            devices=[d.summary() for d in self.devices],
            router=self.router.summary(),
            autoscaler=(
                self.autoscaler.summary() if self.autoscaler is not None else None
            ),
            kills=kills_applied,
            revives=revives_applied,
            health_quarantines=health_quarantines,
            audit_findings=findings,
            offered_req_ids=sorted(offered),
        )
        self._publish_lanes(report)
        return report

    def _publish_lanes(self, report: FleetReport) -> None:
        """Per-device telemetry lanes on the shared metrics registry."""
        tel = self.telemetry
        if tel is None:
            return
        served = tel.metrics.counter(
            "fleet_device_served_total",
            "requests served, by device",
            labelnames=("device",),
        )
        kills = tel.metrics.counter(
            "fleet_device_kills_total",
            "injected device losses, by device",
            labelnames=("device",),
        )
        state = tel.metrics.gauge(
            "fleet_device_state",
            "device health state rank (0=active..4=standby)",
            labelnames=("device",),
        )
        ranks = {s.value: i for i, s in enumerate(DeviceState)}
        for lane in report.devices:
            label = f"dev{lane['device_id']}"
            served.inc(lane["served"], device=label)
            kills.inc(lane["kills"], device=label)
            state.set(float(ranks[lane["state"]]), device=label)

