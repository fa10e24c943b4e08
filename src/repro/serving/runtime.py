"""The serving runtime: its config, its SLO report, and loop dispatch.

The simulation runs in virtual nanoseconds over **two resources** — the
SoC processor and the PIM units — each a single-server timeline
(``free_at``).  A request's life:

    arrival --offer--> [admission queue] --pop--> prefill --> decode

with the deadline (a TTFT budget) enforced at the two phase boundaries:

* **admission -> prefill**: a request whose service would only start
  after its deadline is shed untouched (no resource is burned on it);
* **prefill -> decode**: a request whose first token lands past the
  deadline stops there — the client has given up, decode is not run.

Transient faults hit phase attempts at per-component configured rates
(seeded through the run's single ``random.Random``).  A faulted attempt
burns its full phase on the resource (worst case: the fault surfaces at
the end), then the request backs off ``base * 2^attempt`` scaled by
seeded jitter and retries, up to ``max_retries`` — beyond that it is
aborted.  Every outcome feeds the circuit breakers; the brown-out
controller watches the PIM backlog and migrates decode to the SoC while
saturated (and back under the low watermark).  Routing, retry pricing
and brown-out placement live in :class:`~repro.serving.device.DeviceCore`.

:meth:`ServingRuntime.run` hands the requests to
:func:`repro.workloads.runtime.run_workload_serving`, which picks the
loop class: :class:`~repro.kvcache.scheduler.KvServingLoop` (paged-KV
continuous batching) when ``kv_blocks > 0``, else
:class:`~repro.workloads.runtime.WorkloadLoop` with chat decode or the
workload spec's decode.  Every loop shares ``WorkloadLoop.run``'s
lifecycle and report assembly (:meth:`ServingRuntime.report`).

The :class:`ServingReport` aggregates the run: per-status counts, TTFT /
TTLT percentiles of served requests, goodput, shed rate, SLO attainment,
queue backpressure accounting, breaker transitions, and brown-out
windows.  ``to_dict`` is the machine-readable form the CLI writes to
``benchmarks/results/``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adaptive import AdaptiveConfig
    from repro.analysis.replay import BarrierRecorder
    from repro.telemetry import Telemetry

from repro.engine.metrics import LatencyStats
from repro.engine.policies import InferenceEngine, decode_on_pim
from repro.reliability.degrade import HealthMonitor
from repro.serving.device import DeviceCore, DeviceSettings
from repro.serving.queue import QueueStats
from repro.serving.workload import Request, TenantSpec

__all__ = [
    "OutcomeCounts",
    "RequestOutcome",
    "ServingConfig",
    "ServingReport",
    "ServingRuntime",
    "TERMINAL_STATUSES",
    "conservation_findings",
    "offered_ids",
    "sustainable_qps",
]

#: terminal request statuses
SERVED = "served"
SERVED_DEGRADED = "served-degraded"
REJECTED = "rejected"
DROPPED = "dropped"
TIMED_OUT = "timed-out"
ABORTED = "aborted"
#: a request no routable fleet device could take
SHED_UNROUTABLE = "shed-unroutable"

TERMINAL_STATUSES = (
    SERVED, SERVED_DEGRADED, REJECTED, DROPPED, SHED_UNROUTABLE,
    TIMED_OUT, ABORTED,
)


@dataclass(frozen=True)
class ServingConfig(DeviceSettings):
    """Everything that shapes a serving run except the workload itself:
    the device's settings, the run's seed and its adaptive controller."""

    seed: int = 0
    #: adaptive remapping (see repro.adaptive): None keeps the run
    #: byte-identical to before the feature existed; a ``static``
    #: AdaptiveConfig prices the MapID mismatch penalty but never
    #: migrates, an ``active`` one closes the loop.  Whole-request loop
    #: only: not with kv_blocks > 0 or a workload spec.
    adaptive: Optional[AdaptiveConfig] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.adaptive is None:
            return
        from repro.adaptive import AdaptiveConfig  # only when set, as ServingRuntime does

        if not isinstance(self.adaptive, AdaptiveConfig):
            raise ValueError(
                f"adaptive must be an AdaptiveConfig or None, "
                f"got {self.adaptive!r}"
            )
        if self.kv_blocks > 0:
            raise ValueError(
                "adaptive remapping runs on the whole-request loop only; "
                "it cannot be combined with kv_blocks > 0"
            )


@dataclass(frozen=True)
class RequestOutcome:
    """Terminal disposition of one request: the one record of a settled
    request, on a single device and in a fleet."""

    req_id: int
    tenant: str
    status: str
    policy_requested: str
    policy_served: str = ""
    wait_ns: float = 0.0
    ttft_ns: float = 0.0  # 0 when no first token was produced
    ttlt_ns: float = 0.0  # 0 when the request did not complete
    decode_tokens_served: int = 0
    retries: int = 0
    backoff_ns: float = 0.0
    fallbacks: Tuple[str, ...] = ()
    #: when the request settled (virtual ns)
    end_ns: float = 0.0
    #: the fleet device that settled it (-1 off the fleet, or unplaced)
    device_id: int = -1
    #: device losses that moved it to another fleet device
    failovers: int = 0

    @property
    def served(self) -> bool:
        return self.status in (SERVED, SERVED_DEGRADED)


def offered_ids(requests: Iterable[Request]) -> Set[int]:
    """The ids of *requests*.  Each request must carry its own id, or
    no outcome could be told apart: a duplicated ``req_id`` is an input
    error, raised as a :class:`ValueError` that names it."""
    ids: Set[int] = set()
    for request in requests:
        if request.req_id in ids:
            raise ValueError(
                f"duplicate req_id {request.req_id}: every offered request "
                f"needs its own id"
            )
        ids.add(request.req_id)
    return ids


def conservation_findings(
    offered: Iterable[int], outcomes: Sequence[RequestOutcome]
) -> List[str]:
    """The conservation law: every offered request reaches exactly one
    terminal outcome.  Returns one message per way *outcomes* break it
    against the *offered* ids; empty when the law holds."""
    findings: List[str] = []
    ids = [o.req_id for o in outcomes]
    settled = set(ids)
    if len(ids) != len(settled):
        findings.append("a request reached two terminal outcomes")
    expected = set(offered)
    missing = expected - settled
    if missing:
        findings.append(
            f"{len(missing)} request(s) silently lost (e.g. req {min(missing)})"
        )
    extra = settled - expected
    if extra:
        findings.append(f"{len(extra)} outcome(s) for requests never offered")
    stray = [o for o in outcomes if o.status not in TERMINAL_STATUSES]
    if stray:
        findings.append(
            f"{len(stray)} outcome(s) with a non-terminal status (e.g. req "
            f"{stray[0].req_id}: {stray[0].status!r})"
        )
    return findings


class OutcomeCounts:
    """The counting core of every serving report: per-status counts,
    goodput, SLO attainment and TTFT over the report's ``outcomes`` and
    ``duration_ns``."""

    outcomes: List[RequestOutcome]
    duration_ns: float

    def _count(self, *statuses: str) -> int:
        return sum(1 for o in self.outcomes if o.status in statuses)

    @property
    def offered(self) -> int:
        return len(self.outcomes)

    @property
    def served(self) -> int:
        return self._count(SERVED, SERVED_DEGRADED)

    @property
    def served_degraded(self) -> int:
        return self._count(SERVED_DEGRADED)

    @property
    def rejected(self) -> int:
        return self._count(REJECTED)

    @property
    def dropped(self) -> int:
        return self._count(DROPPED)

    @property
    def timed_out(self) -> int:
        return self._count(TIMED_OUT)

    @property
    def aborted(self) -> int:
        return self._count(ABORTED)

    @property
    def unserved(self) -> int:
        """Admitted requests that never completed — the failure count the
        CLI gates its exit status on (shed requests are *decisions*, not
        failures; these are broken promises)."""
        return self.timed_out + self.aborted

    @property
    def slo_attainment(self) -> float:
        """Fraction of offered requests fully served within deadline (a
        served request met its TTFT budget by construction — the
        boundary check stops any that would not)."""
        return self.served / self.offered if self.offered else 0.0

    @property
    def goodput_qps(self) -> float:
        return self.served / (self.duration_ns / 1e9) if self.duration_ns else 0.0

    @property
    def ttft(self) -> LatencyStats:
        return LatencyStats.from_values([o.ttft_ns for o in self.outcomes if o.served])


@dataclass
class ServingReport(OutcomeCounts):
    """Aggregate outcome of one serving run."""

    config: ServingConfig
    outcomes: List[RequestOutcome] = field(default_factory=list)
    queue_stats: QueueStats = field(default_factory=QueueStats)
    duration_ns: float = 0.0
    breaker_transitions: Dict[str, List[Tuple[float, str, str]]] = field(
        default_factory=dict
    )
    #: per-breaker :meth:`CircuitBreaker.snapshot` at end of run — the
    #: auditable state/trip-count view fleet routing decisions rest on
    breaker_snapshots: Dict[str, Dict] = field(default_factory=dict)
    brownout_intervals: List[Tuple[float, float]] = field(default_factory=list)
    health: Dict[str, str] = field(default_factory=dict)
    #: KV-cache counters (block occupancy, evictions, preemptions,
    #: prefix hits, ...) when the run used the paged-KV scheduler
    kv: Optional[Dict] = None
    #: adaptive-remapping controller summary (state, migrations, events,
    #: final arena MapIDs) when the run had an adaptive controller
    adaptive: Optional[Dict] = None
    #: per-workload accounting (speculative rounds, expert placement,
    #: co-residency interference) when the run was dispatched through
    #: ``repro.workloads``; None — and absent from :meth:`to_dict`, so
    #: chat reports stay byte-identical — otherwise
    workload: Optional[Dict] = None

    @property
    def shed_rate(self) -> float:
        return (self.rejected + self.dropped) / self.offered if self.offered else 0.0

    @property
    def ttlt(self) -> LatencyStats:
        return LatencyStats.from_values([o.ttlt_ns for o in self.outcomes if o.served])

    @property
    def ok(self) -> bool:
        return self.unserved == 0

    def to_dict(self) -> Dict:
        out: Dict = {
            "seed": self.config.seed,
            "shed_policy": self.config.shed_policy,
            "queue_capacity": self.config.queue_capacity,
            "duration_ms": self.duration_ns / 1e6,
            "offered": self.offered,
            "served": self.served,
            "served_degraded": self.served_degraded,
            "rejected": self.rejected,
            "dropped": self.dropped,
            "timed_out": self.timed_out,
            "aborted": self.aborted,
            "unserved": self.unserved,
            "shed_rate": self.shed_rate,
            "slo_attainment": self.slo_attainment,
            "goodput_qps": self.goodput_qps,
            "ttft": self.ttft.to_dict(),
            "ttlt": self.ttlt.to_dict(),
            "queue": {
                "peak_occupancy": self.queue_stats.peak_occupancy,
                "mean_occupancy": self.queue_stats.mean_occupancy(self.duration_ns),
                "mean_wait_ms": (
                    self.queue_stats.wait_ns / self.queue_stats.admitted / 1e6
                    if self.queue_stats.admitted
                    else 0.0
                ),
            },
            "breakers": {
                name: [(t, a, b) for t, a, b in trans]
                for name, trans in self.breaker_transitions.items()
            },
            "breaker_snapshots": {
                name: dict(snap) for name, snap in self.breaker_snapshots.items()
            },
            "brownout": {
                "windows": len(self.brownout_intervals),
                "total_ms": sum(e - s for s, e in self.brownout_intervals) / 1e6,
            },
            "health": dict(self.health),
            "kv": dict(self.kv) if self.kv is not None else None,
            "adaptive": dict(self.adaptive) if self.adaptive is not None else None,
            "ok": self.ok,
        }
        if self.workload is not None:
            # Keyed only when present: a chat run's report must serialize
            # byte-identically whether or not repro.workloads is loaded.
            out["workload"] = dict(self.workload)
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        from repro.telemetry.render import render_text

        d = self.to_dict()
        header = (
            f"serving run: seed={d['seed']} shed={d['shed_policy']} "
            f"capacity={d['queue_capacity']} duration={d['duration_ms']:.1f} ms"
        )
        pairs = [
            ("offered", d["offered"]),
            ("served", f"{d['served']} ({d['served_degraded']} degraded)"),
            (
                "shed",
                f"{d['rejected']} rejected, {d['dropped']} dropped "
                f"(rate {d['shed_rate']:.3f})",
            ),
            (
                "unserved",
                f"{d['timed_out']} timed-out, {d['aborted']} aborted",
            ),
            ("SLO attainment", f"{d['slo_attainment']:.3f}"),
            ("goodput", f"{d['goodput_qps']:.1f} qps"),
            (
                "TTFT p50/p99",
                f"{d['ttft']['p50_ms']:.3f} / {d['ttft']['p99_ms']:.3f} ms",
            ),
            (
                "TTLT p50/p99",
                f"{d['ttlt']['p50_ms']:.3f} / {d['ttlt']['p99_ms']:.3f} ms",
            ),
            (
                "queue occupancy",
                f"peak {d['queue']['peak_occupancy']}, "
                f"mean {d['queue']['mean_occupancy']:.2f}, "
                f"mean wait {d['queue']['mean_wait_ms']:.3f} ms",
            ),
            (
                "brown-out",
                f"{d['brownout']['windows']} window(s), "
                f"{d['brownout']['total_ms']:.1f} ms total",
            ),
            (
                "breaker events",
                "; ".join(
                    f"{name}: " + ", ".join(f"{a}->{b}" for _, a, b in trans)
                    for name, trans in d["breakers"].items()
                    if trans
                )
                or "none",
            ),
        ]
        kv = d.get("kv")
        if kv:
            pairs += [
                (
                    "kv pool",
                    f"{kv['num_blocks']} blocks x "
                    f"{kv['block_tokens']} tokens, occupancy peak "
                    f"{kv['occupancy_peak']} / p99 {kv['occupancy_p99']:.1f}",
                ),
                (
                    "kv churn",
                    f"{kv['evictions']} evicted, "
                    f"{kv['preemptions']} preempted, {kv['cow_copies']} CoW, "
                    f"{kv['kv_rejections']} rejected, "
                    f"{kv['kv_clipped']} clipped, "
                    f"{kv['kv_degraded']} degraded",
                ),
                (
                    "prefix sharing",
                    f"hit rate {kv['prefix_hit_rate']:.3f} "
                    f"({kv['prefill_tokens_saved']} prefill tokens saved)"
                    if kv["prefix_sharing"]
                    else "disabled",
                ),
                (
                    "kv pressure",
                    f"{kv['pressure_windows']} window(s), "
                    f"{kv['pressure_total_ms']:.1f} ms total",
                ),
            ]
        workload = d.get("workload")
        if workload:
            shown = [
                f"{key} {value}"
                for key, value in workload.items()
                if key != "name" and isinstance(value, (int, float))
                and not isinstance(value, bool)
            ]
            pairs.append(
                (f"workload [{workload.get('name', '?')}]", ", ".join(shown))
            )
        adaptive = d.get("adaptive")
        if adaptive:
            pairs += [
                (
                    "adaptive",
                    f"mode {adaptive['mode']}, state {adaptive['state']}, "
                    f"{adaptive['migrations_started']}/{adaptive['budget']} "
                    f"migration(s): {adaptive['promotions']} promoted, "
                    f"{adaptive['rollbacks']} rolled back",
                ),
                (
                    "arena MapIDs",
                    " ".join(str(k) for k in adaptive["page_map_ids"])
                    + (
                        f" (audit findings: {adaptive['audit_findings']})"
                        if adaptive["audit_findings"]
                        else ""
                    ),
                ),
            ]
        return render_text(header, pairs)


class ServingRuntime:
    """Push a workload through the engine under one :class:`ServingConfig`.

    The runtime owns the device's :class:`~repro.serving.device.DeviceCore`
    (breakers, brown-out, health, routing, retry pricing) and the
    optional adaptive controller; :meth:`run` hands the requests to
    the loop class the config and workload spec select.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        config: Optional[ServingConfig] = None,
        monitor: Optional[HealthMonitor] = None,
        telemetry: Optional["Telemetry"] = None,
        barriers: Optional["BarrierRecorder"] = None,
        workload: Optional[object] = None,
    ):
        self.engine = engine
        self.config = config if config is not None else ServingConfig()
        cfg = self.config
        if workload is not None:
            # the workload loops own their placement state and run no
            # adaptive controller: refuse instead of silently ignoring
            if cfg.adaptive is not None:
                raise ValueError(
                    f"ServingConfig.adaptive must be None with a workload "
                    f"spec, got {cfg.adaptive!r}"
                )
            if cfg.kv_blocks > 0:
                raise ValueError(
                    f"ServingConfig.kv_blocks must be 0 with a workload "
                    f"spec (workload loops manage their own placement "
                    f"state), got {cfg.kv_blocks!r}"
                )
        #: optional workload spec (repro.workloads): a SpeculativeSpec /
        #: ExpertPlacementSpec / CoResidencySpec selects that workload's
        #: decode; None serves chat
        self.workload = workload
        #: optional observability bundle; spans ride simulated time and
        #: counters are pure derivations, so results are byte-identical
        #: with telemetry on or off
        self.telemetry = telemetry
        #: optional replay-diff barrier recorder (``serve --replay-check``);
        #: observing state never mutates it, so results are byte-identical
        #: with the recorder on or off
        self.barriers = barriers
        self.core = DeviceCore(engine, cfg, monitor)
        #: adaptive remapping controller (None when cfg.adaptive is None;
        #: the import is lazy so the base serving stack stays free of the
        #: functional-system dependency)
        self.adaptive = None
        if cfg.adaptive is not None:
            from repro.adaptive import AdaptiveController

            self.adaptive = AdaptiveController(
                cfg.adaptive, telemetry=telemetry, seed=cfg.seed
            )

    def report(
        self,
        outcomes: List[RequestOutcome],
        queue_stats: QueueStats,
        end_ns: float,
        **sections: Optional[Dict],
    ) -> ServingReport:
        """Close a finished run at *end_ns*: end the brown-out window,
        assemble the report (outcomes in request order, plus the loop's
        ``kv`` / ``adaptive`` / ``workload`` *sections*) and fold it into
        telemetry."""
        self.core.brownout.finish(end_ns)
        outcomes.sort(key=lambda o: o.req_id)
        report = ServingReport(
            config=self.config,
            outcomes=outcomes,
            queue_stats=queue_stats,
            duration_ns=end_ns,
            **self.core.report_fields(),
            **sections,
        )
        if self.telemetry is not None:
            self.telemetry.record_serving_report(report)
            self.telemetry.tracer.close_all(end_ns)
        return report

    def run(self, requests: Sequence[Request]) -> ServingReport:
        """Serve *requests* on the loop
        :func:`~repro.workloads.runtime.run_workload_serving` picks for
        this runtime."""
        from repro.workloads.runtime import run_workload_serving

        return run_workload_serving(self, requests)


def sustainable_qps(
    engine: InferenceEngine, tenant: TenantSpec, n: int = 200, seed: int = 0
) -> float:
    """Estimate the highest arrival rate the two-resource pipeline can
    sustain for *tenant*'s traffic: the reciprocal of the mean work on the
    **bottleneck** resource (prefill and decode pipeline across requests,
    so the slower timeline sets the ceiling)."""
    if n <= 0:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    work = {"soc": 0.0, "pim": 0.0}
    on_pim = decode_on_pim(tenant.policy)
    for _ in range(n):
        trace = tenant.dataset.sample_one(rng)
        prefill = engine.price_prefill(tenant.policy, trace.prefill_tokens)
        work[prefill.resource] += prefill.total_ns
        work["pim" if on_pim else "soc"] += engine.decode_total_ns(
            trace.prefill_tokens, trace.decode_tokens, on_pim
        )
    bottleneck_ns = max(work.values()) / n
    return 1e9 / bottleneck_ns
