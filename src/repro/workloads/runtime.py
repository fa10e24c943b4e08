"""The single-device serving loop and the loop dispatch.

:meth:`WorkloadLoop.run` is the run lifecycle of every single-device
loop; :func:`run_workload_serving` picks the loop class.  The default
:meth:`WorkloadLoop.drive` runs every request to completion before the
next one starts its prefill: admission queue, deadline boundaries at
admission->prefill and prefill->decode, and retry-priced phases on the
two-resource (SoC / PIM) timeline, all through the loop's
:class:`~repro.serving.device.DeviceCore`.  The loop owns its per-run
state (RNG, queue, degraded map, outcomes, timelines, clock) and is
steppable: :meth:`WorkloadLoop.offer` admits one arrival and
:meth:`WorkloadLoop.serve` runs one popped request to its outcome.
Fleet devices (:class:`~repro.fleet.device.FleetDevice`) are chat loops
the fleet runtime steps; the paged-KV loop
(:class:`~repro.kvcache.scheduler.KvServingLoop`) drives continuous
batching instead.

Chat serving is the default decode; each workload in
:mod:`repro.workloads` subclasses :class:`WorkloadLoop` and differs
only in how it **prices and executes decode**, through these hooks:

* :meth:`WorkloadLoop.route` — plan prefill (default: the device core's
  breaker/brownout-aware router);
* :meth:`WorkloadLoop.begin_request` — per-request setup after pop
  (e.g. KV admission); may shed the request;
* :meth:`WorkloadLoop.decode` — decode execution; runs its phases
  itself and advances the resource timelines.  The default is chat's
  whole-request decode with the brown-out SoC migration;
* :meth:`WorkloadLoop.interrupted` — a loss of the device inside the
  service window (never by default; a fleet device's scheduled kill);
* :meth:`WorkloadLoop.abandon` / :meth:`WorkloadLoop.finish` — cleanup
  on failure / success;
* :meth:`WorkloadLoop.record` — keep one terminal outcome;
* :meth:`WorkloadLoop.teardown` + :meth:`WorkloadLoop.sections` — end
  of run: release placed state and summarize into the report's
  ``workload`` section.

The runtime's adaptive remapping controller, when configured, is an
optional hook inside the loop: it prices each request's MapID mismatch
on its PIM phases and observes every popped request's outcome.  Replay
barriers and per-outcome request spans live here too, so every
workload gets them.

Determinism contract: all randomness flows through the loop's one
``random.Random`` (``config.seed``), in request order — same seed, same
report bytes.  Telemetry is fold-in only (spans on simulated time,
metrics derived from the finished report), so results are
byte-identical with telemetry on or off.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.serving.device import DecodeResult, DeviceCore, DeviceSettings, Route
from repro.serving.queue import AdmissionQueue
from repro.serving.runtime import (
    ABORTED,
    DROPPED,
    REJECTED,
    SERVED,
    SERVED_DEGRADED,
    TIMED_OUT,
    RequestOutcome,
    ServingReport,
    ServingRuntime,
    conservation_findings,
    offered_ids,
)
from repro.serving.workload import Request

__all__ = [
    "DecodeResult",
    "WorkloadLoop",
    "next_arrival_ns",
    "require_placed",
    "run_workload_serving",
]

_T = TypeVar("_T")


def next_arrival_ns(pending: Sequence[Request], index: int) -> float:
    """When *pending*'s arrival at *index* lands (inf past the end).  A
    loop offers that arrival before any service that would start at or
    after it: it may evict the queue head (drop-oldest) or shed itself."""
    return pending[index].arrival_ns if index < len(pending) else math.inf


def require_placed(value: Optional[_T], what: str) -> _T:
    """Narrow state placed by ``setup()`` — ``run()`` always places it
    before any hook; a ``None`` here means a hook was called outside
    the loop's lifecycle."""
    if value is None:
        raise RuntimeError(f"{what} is not placed; run() calls setup() first")
    return value


class WorkloadLoop:
    """Whole-request serving loop: chat decode by default, workloads
    override the hooks (see the module docstring)."""

    #: workload name recorded in the report section and telemetry labels
    name = "chat"
    # class-level defaults that a loop built from a runtime overrides and
    # a fleet device keeps (see FleetDevice on its attribute budget)
    #: the observability bundle (None: no spans)
    telemetry: Any = None
    #: the adaptive remapping controller (None: no MapID pricing)
    controller: Any = None
    #: PIM work multiplier of the request in service: the adaptive
    #: controller's MapID mismatch penalty (1.0 without one)
    pim_mult = 1.0

    def __init__(self, runtime: ServingRuntime, spec: object = None) -> None:
        cfg = runtime.config
        self.runtime = runtime
        #: the workload spec (None for chat); the base loop never reads it
        self.spec = spec
        self.telemetry = runtime.telemetry
        self.controller = runtime.adaptive
        self._init_loop(runtime.core, cfg, random.Random(cfg.seed))

    def _init_loop(
        self, core: DeviceCore, settings: DeviceSettings, rng: random.Random
    ) -> None:
        """Place the per-run state every loop steps on: *settings* size
        the admission queue and the degraded decode budget."""
        self.core = core
        self.rng = rng
        self.queue = AdmissionQueue(
            settings.queue_capacity, settings.shed_policy,
            settings.degrade_watermark,
        )
        self.degraded_decode_tokens: int = settings.degraded_decode_tokens
        #: req_id -> admitted degraded, for every queued request
        self.degraded: Dict[int, bool] = {}
        #: every terminal outcome, in settling order
        self.outcomes: List[RequestOutcome] = []
        self.free: Dict[str, float] = {"soc": 0.0, "pim": 0.0}
        #: start of the latest service (``last_event``: latest event)
        self.clock = 0.0
        self.last_event = 0.0

    # -- hooks ---------------------------------------------------------

    def setup(self) -> None:
        """Place workload state (expert regions, KV pools, ...)."""

    def route(self, head: Request, now_ns: float, backlog_ns: float) -> Route:
        return self.core.route(head, now_ns, backlog_ns)

    def begin_request(self, head: Request, start_ns: float) -> Optional[str]:
        """Per-request setup after pop; a non-None return sheds the
        request with that reason (recorded as a fallback note)."""
        return None

    def prefill_overhead(
        self, head: Request, route: Route, est_ns: float, start_ns: float
    ) -> float:
        """Extra ns charged to the prefill phase (e.g. a cross-model
        mapping-switch penalty).  Default: none."""
        return 0.0

    def decode(
        self,
        head: Request,
        route: Route,
        prefill_end_ns: float,
        decode_tokens: int,
        rng: random.Random,
    ) -> DecodeResult:
        """Chat decode: the whole request in one retry-priced phase,
        placed by the device core's brown-out rule."""
        return self.core.decode(
            route, head.prefill_tokens, decode_tokens, prefill_end_ns,
            self.free, rng, self.pim_mult,
        )

    def interrupted(self, t_ns: float) -> bool:
        """Whether the device is lost before a phase ending at *t_ns*
        completes.  A lost request gets no outcome and its burned work
        stays on the timelines.  Default: never."""
        return False

    def abandon(self, head: Request, now_ns: float) -> None:
        """Cleanup for a request that failed after :meth:`begin_request`."""

    def finish(self, head: Request, now_ns: float) -> None:
        """Cleanup for a served request."""

    def record(self, request: Request, status: str, **fields: Any) -> RequestOutcome:
        """Keep *request*'s terminal outcome in :attr:`outcomes` and
        return it; *fields* are
        :class:`~repro.serving.runtime.RequestOutcome` fields."""
        outcome = RequestOutcome(
            req_id=request.req_id,
            tenant=request.tenant,
            status=status,
            policy_requested=request.policy,
            **fields,
        )
        self.outcomes.append(outcome)
        return outcome

    def teardown(self, end_ns: float) -> None:
        """Release everything placed in :meth:`setup`."""

    def sections(self) -> Dict[str, Optional[Dict]]:
        """The report's optional sections (JSON-stable): the adaptive
        controller's summary, a workload's or the KV loop's counters."""
        ada = self.controller
        return {} if ada is None else {"adaptive": ada.report()}

    # -- steps ---------------------------------------------------------

    def offer(
        self, request: Request, now_ns: Optional[float] = None
    ) -> Tuple[str, Optional[Request]]:
        """Offer *request* to the admission queue at *now_ns* (default:
        its arrival).  A waiter it displaces is recorded as dropped, a
        refused arrival as rejected, an admission flagged degraded or
        not.  Returns the queue's ``(verdict, evicted)``."""
        at = request.arrival_ns if now_ns is None else now_ns
        verdict, evicted = self.queue.offer(request, at)
        if evicted is not None:
            self.degraded.pop(evicted.req_id, None)
            self.record(evicted, DROPPED, wait_ns=at - evicted.arrival_ns, end_ns=at)
            self.trace(evicted, DROPPED, evicted.policy, start_ns=at)
        if verdict == REJECTED:
            self.record(request, REJECTED, end_ns=at)
            self.trace(request, REJECTED, request.policy)
        else:
            self.degraded[request.req_id] = verdict == "admitted-degraded"
        return verdict, evicted

    def serve(
        self, head: Request, route: Route, est: float, start: float
    ) -> Optional[RequestOutcome]:
        """Pop the queue *head* at *start* and run it on *route*
        (planned at *est*) through both deadline checks, prefill and
        decode; record its outcome and span and tick the adaptive
        controller.  Returns the recorded outcome, or None when
        :meth:`interrupted` cut the service short."""
        self.queue.pop(start)
        self.clock = start
        self.last_event = max(self.last_event, start)
        was_degraded = self.degraded.pop(head.req_id, False)
        wait_ns = start - head.arrival_ns
        policy = route.policy
        outcome: Dict[str, Any] = dict(
            policy_served=policy, wait_ns=wait_ns, fallbacks=route.fallbacks
        )
        # adaptive remapping: price the request's MapID/arena mismatch
        # on its PIM phases, and let the controller observe every
        # outcome (possibly migrating between requests on the PIM
        # timeline).  Without a controller the multiplier is exactly
        # 1.0 and the tick is a no-op, so the run is unchanged.
        ada = self.controller
        k_req = 0
        if ada is not None:
            k_req = ada.ideal_map_id(head.prefill_tokens)
            self.pim_mult = ada.pim_multiplier(k_req)

        # boundary 1: admission -> prefill
        if start > head.deadline_abs_ns:
            settled = self.record(head, TIMED_OUT, end_ns=start, **outcome)
            self.trace(head, TIMED_OUT, policy, start_ns=start)
            self._adaptive_tick(head, route, k_req, False, 0.0, 0.0)
            return settled

        shed_reason = self.begin_request(head, start)
        if shed_reason is not None:
            outcome["fallbacks"] += (shed_reason,)
            settled = self.record(head, REJECTED, end_ns=start, **outcome)
            self.trace(head, REJECTED, policy, start_ns=start, reason=shed_reason)
            self._adaptive_tick(head, route, k_req, False, 0.0, 0.0)
            return settled

        prefill_pim = route.prefill_resource == "pim"
        prefill_ns = route.prefill_ns
        if prefill_pim:
            prefill_ns *= self.pim_mult
        prefill_end, ok, retries, backoff = self.core.run_phase(
            start,
            prefill_ns + self.prefill_overhead(head, route, est, start),
            route.prefill_component,
            self.rng,
        )
        self.free[route.prefill_resource] = prefill_end
        self.last_event = max(self.last_event, prefill_end)
        if self.interrupted(prefill_end):
            return None
        pim_ns = route.prefill_ns if prefill_pim else 0.0
        outcome.update(retries=retries, backoff_ns=backoff)
        phases: Dict[str, Any] = dict(
            start_ns=start, prefill_end_ns=prefill_end,
            prefill_resource=route.prefill_resource,
        )
        if not ok:
            settled = self.record(head, ABORTED, end_ns=prefill_end, **outcome)
            self.trace(head, ABORTED, policy, **phases, retries=retries)
            self.abandon(head, prefill_end)
            self._adaptive_tick(head, route, k_req, False, 0.0, pim_ns)
            return settled
        outcome["ttft_ns"] = ttft_ns = prefill_end - head.arrival_ns

        # boundary 2: prefill -> decode (first token must be in budget)
        if prefill_end > head.deadline_abs_ns:
            settled = self.record(head, TIMED_OUT, end_ns=prefill_end, **outcome)
            self.trace(head, TIMED_OUT, policy, **phases)
            self.abandon(head, prefill_end)
            self._adaptive_tick(head, route, k_req, False, 0.0, pim_ns)
            return settled

        decode_tokens = head.decode_tokens
        if was_degraded:
            decode_tokens = max(
                1, min(decode_tokens, self.degraded_decode_tokens)
            )
        result = self.decode(head, route, prefill_end, decode_tokens, self.rng)
        end = result.end_ns
        self.last_event = max(self.last_event, end)
        if self.interrupted(end):
            return None
        retries += result.retries
        outcome.update(
            retries=retries,
            backoff_ns=backoff + result.backoff_ns,
            fallbacks=route.fallbacks + result.fallbacks,
        )
        phases.update(
            decode_start_ns=(
                result.start_ns if result.start_ns is not None else prefill_end
            ),
            end_ns=end,
            decode_resource=result.resource,
            context_tokens=head.prefill_tokens,
        )
        pim_ns += result.pim_ns
        if not result.ok:
            settled = self.record(head, ABORTED, end_ns=end, **outcome)
            self.trace(head, ABORTED, policy, **phases)
            self.abandon(head, end)
            self._adaptive_tick(head, route, k_req, False, 0.0, pim_ns)
            return settled

        status = SERVED_DEGRADED if was_degraded else SERVED
        settled = self.record(
            head, status, ttlt_ns=end - head.arrival_ns,
            decode_tokens_served=result.tokens_served, end_ns=end, **outcome,
        )
        self.finish(head, end)
        self.trace(head, status, policy, served=result, **phases)
        self.trace_decode(head, prefill_end, result)
        # the controller sees *service* TTFT (queue wait excluded):
        # its canary judges the mapping, not the admission backlog
        self._adaptive_tick(head, route, k_req, True, ttft_ns - wait_ns, pim_ns)
        return settled

    def _adaptive_tick(
        self, head: Request, route: Route, k_req: int, served: bool,
        ttft_ns: float, pim_base_ns: float,
    ) -> None:
        ada = self.controller
        if ada is None:
            return
        migration_ns = ada.tick(
            head.req_id,
            self.last_event,
            k_req,
            served,
            ttft_ns,
            pim_base_ns,
            pim_obs_ns=pim_base_ns * self.pim_mult,
            pim_ok=route.pim_allowed,
            brownout=route.brownout_active,
        )
        if migration_ns > 0.0:
            self.free["pim"] = max(self.free["pim"], self.last_event) + migration_ns
            self.last_event = self.free["pim"]

    # -- one device, start to finish ----------------------------------

    def run(self, requests: Sequence[Request]) -> ServingReport:
        """Serve *requests* on this one device: refuse a duplicated
        ``req_id``, calibrate telemetry, order the arrivals,
        :meth:`setup`, :meth:`drive`, :meth:`teardown` at the run's end,
        hold the outcomes to the conservation law (a
        :class:`RuntimeError` names the first breach, a fault of the
        loop), snap the final barrier and close the report with the
        loop's :meth:`sections`."""
        offered = offered_ids(requests)
        runtime = self.runtime
        tel = self.telemetry
        if tel is not None:
            # probe once per bundle: grounds controller/DRAM span
            # durations and the advisor counters without touching the
            # run's RNG or timelines
            tel.ensure_calibrated(runtime.engine)
        pending = sorted(requests, key=lambda r: (r.arrival_ns, r.req_id))
        self.setup()
        self.drive(pending)
        end_ns = max(
            self.last_event, pending[-1].arrival_ns if pending else 0.0,
            self.clock,
        )
        self.teardown(end_ns)
        findings = conservation_findings(offered, self.outcomes)
        if findings:
            raise RuntimeError(f"{self.name} loop broke conservation: {findings[0]}")
        bar = runtime.barriers
        if bar is not None:
            final = self.barrier_state(full=True)
            final["duration_ns"] = end_ns
            bar.snap("final", len(self.outcomes), final)
        return runtime.report(
            self.outcomes, self.queue.stats, end_ns, **self.sections()
        )

    def drive(self, pending: Sequence[Request]) -> None:
        """Whole-request stepping over *pending* (in arrival order):
        offer each arrival, and serve the queue head once no arrival
        precedes its start."""
        bar = self.runtime.barriers
        queue = self.queue
        free = self.free
        next_arrival = 0
        while next_arrival < len(pending) or len(queue):
            if bar is not None:
                bar.observe(len(self.outcomes), self.barrier_state)
            upcoming = next_arrival_ns(pending, next_arrival)
            head = queue.peek()
            # arrivals strictly before the earliest possible service
            # come first ...
            if head is None or upcoming <= max(head.arrival_ns, self.clock):
                self.offer(pending[next_arrival])
                next_arrival += 1
                continue
            est = max(head.arrival_ns, self.clock)
            route = self.route(head, est, max(0.0, free["pim"] - est))
            start = max(est, free[route.prefill_resource])
            # ... and arrivals while the head waits for its resource may
            # still evict it (drop-oldest) or shed themselves: ingest, redo
            if upcoming <= start:
                self.offer(pending[next_arrival])
                next_arrival += 1
                continue
            self.serve(head, route, est, start)

    # -- replay barriers -----------------------------------------------

    def barrier_state(self, full: bool = False) -> Dict[str, object]:
        """State components for one replay-diff barrier: the RNG stream
        position, both resource timelines, outcome progress, the
        adaptive arena (PTEs + journal cursor; whole-arena CRC when
        *full*), and the metrics snapshot hash when telemetry rides
        along.  Reads only — a barrier must never perturb the run."""
        outcomes = self.outcomes
        state: Dict[str, object] = {
            "rng": self.rng.getstate(),
            "free_soc": self.free["soc"],
            "free_pim": self.free["pim"],
            "outcomes": len(outcomes),
            "last_outcome": outcomes[-1].req_id if outcomes else -1,
        }
        if self.controller is not None:
            state.update(self.controller.arena.barrier_state(full=full))
        if self.telemetry is not None:
            state["metrics"] = self.telemetry.metrics.snapshot()
        return state

    # -- telemetry -----------------------------------------------------

    def trace(self, request: Request, status: str, policy: str,
              served: Optional[DecodeResult] = None, **phases: Any) -> None:
        """Emit *request*'s span tree from the phase boundaries it
        reached (telemetry only)."""
        tel = self.telemetry
        if tel is not None:
            tel.trace_query(
                request.req_id, request.tenant, request.arrival_ns,
                status, policy, **phases, **self.span_args(served),
            )

    def span_args(self, served: Optional[DecodeResult] = None) -> Dict[str, Any]:
        """Extra args on a request's root span.  Workload loops tag every
        span with their name (a served decode also gets its own
        workload-lane span); chat records a served request's decode
        tokens."""
        if self.name != WorkloadLoop.name:
            return {"workload": self.name}
        return {} if served is None else {"decode_tokens": served.tokens_served}

    def trace_decode(
        self, head: Request, decode_start_ns: float, result: DecodeResult
    ) -> None:
        """Emit a workload-lane span for a served request's decode
        (sampled like every other span; simulated time only)."""
        tel = self.telemetry
        if tel is None:
            return
        args = self.decode_span_args(head)
        if args is None or result.end_ns <= decode_start_ns:
            return
        handle = tel.tracer.begin(
            head.req_id,
            f"{self.name}.decode",
            "workload",
            decode_start_ns,
            tokens=result.tokens_served,
            **args,
        )
        if handle is not None:
            handle.close(result.end_ns)

    def decode_span_args(self, head: Request) -> Optional[Dict]:
        """Extra args for the workload-lane decode span; None (chat)
        emits no lane span."""
        return None


def run_workload_serving(
    runtime: ServingRuntime, requests: Sequence[Request]
) -> ServingReport:
    """Run *requests* on the loop class *runtime* selects: paged-KV
    continuous batching when ``kv_blocks > 0``, else the whole-request
    loop whose decode matches ``runtime.workload`` (chat when it is
    None)."""
    from repro.kvcache.scheduler import KvServingLoop
    from repro.workloads.coresident import CoResidencyLoop
    from repro.workloads.moe import ExpertPlacementLoop
    from repro.workloads.specs import (
        CoResidencySpec,
        ExpertPlacementSpec,
        SpeculativeSpec,
    )
    from repro.workloads.speculative import SpeculativeLoop

    spec = runtime.workload
    loop: WorkloadLoop
    if spec is None:
        paged = runtime.config.kv_blocks > 0
        loop = KvServingLoop(runtime) if paged else WorkloadLoop(runtime)
    elif isinstance(spec, SpeculativeSpec):
        loop = SpeculativeLoop(runtime, spec)
    elif isinstance(spec, ExpertPlacementSpec):
        loop = ExpertPlacementLoop(runtime, spec)
    elif isinstance(spec, CoResidencySpec):
        loop = CoResidencyLoop(runtime, spec)
    else:
        raise TypeError(
            f"runtime.workload must be a SpeculativeSpec, ExpertPlacementSpec, "
            f"or CoResidencySpec, got {type(spec).__name__}"
        )
    return loop.run(requests)
