"""The whole-request serving loop and the dispatch entry point.

Every request in this loop runs to completion before the next one
starts its prefill: admission queue, deadline boundaries at
admission->prefill and prefill->decode, and retry-priced phases on the
two-resource (SoC / PIM) timeline, all through the runtime's
:class:`~repro.serving.device.DeviceCore`.  Chat serving is the default
decode; each workload in :mod:`repro.workloads` subclasses
:class:`WorkloadLoop` and differs only in how it **prices and executes
decode**, through these hooks:

* :meth:`WorkloadLoop.route` — plan prefill (default: the device core's
  breaker/brownout-aware router);
* :meth:`WorkloadLoop.begin_request` — per-request setup after pop
  (e.g. KV admission); may shed the request;
* :meth:`WorkloadLoop.decode` — decode execution; runs its phases
  itself and advances the resource timelines.  The default is chat's
  whole-request decode with the brown-out SoC migration;
* :meth:`WorkloadLoop.abandon` / :meth:`WorkloadLoop.finish` — cleanup
  on failure / success;
* :meth:`WorkloadLoop.teardown` + :meth:`WorkloadLoop.section` — end of
  run: release placed state and summarize into the report's
  ``workload`` section.

The runtime's adaptive remapping controller, when configured, is an
optional hook inside the loop: it prices each request's MapID mismatch
on its PIM phases and observes every popped request's outcome.  Replay
barriers and per-outcome request spans live here too, so every
workload gets them.

Determinism contract: all randomness flows through the one
``random.Random(config.seed)`` the loop owns, in request order — same
seed, same report bytes.  Telemetry is fold-in only (spans on simulated
time, metrics derived from the finished report), so results are
byte-identical with telemetry on or off.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, TypeVar

from repro.serving.device import DecodeResult, Route
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
)
from repro.serving.workload import Request

__all__ = [
    "DecodeResult",
    "WorkloadLoop",
    "require_placed",
    "run_workload_serving",
]

_T = TypeVar("_T")


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

    def __init__(self, runtime: ServingRuntime, spec: object = None) -> None:
        self.runtime = runtime
        self.core = runtime.core
        self.spec = spec
        self.free: Dict[str, float] = {"soc": 0.0, "pim": 0.0}
        #: PIM work multiplier of the request in service: the adaptive
        #: controller's MapID mismatch penalty (1.0 without one)
        self.pim_mult = 1.0

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

    def abandon(self, head: Request, now_ns: float) -> None:
        """Cleanup for a request that failed after :meth:`begin_request`."""

    def finish(self, head: Request, now_ns: float) -> None:
        """Cleanup for a served request."""

    def teardown(self, end_ns: float) -> None:
        """Release everything placed in :meth:`setup`."""

    def section(self) -> Optional[Dict]:
        """The report's ``workload`` section (JSON-stable); chat has
        none, so its report serializes without the key."""
        return None

    # -- the event loop ------------------------------------------------

    def run(self, requests: Sequence[Request]) -> ServingReport:
        runtime = self.runtime
        core = self.core
        cfg = runtime.config
        tel = runtime.telemetry
        bar = runtime.barriers
        ada = runtime.adaptive
        if tel is not None:
            # probe once per bundle: grounds controller/DRAM span
            # durations and the advisor counters without touching the
            # run's RNG or timelines
            tel.ensure_calibrated(runtime.engine)
        rng = random.Random(cfg.seed)
        queue = AdmissionQueue(
            cfg.queue_capacity, cfg.shed_policy, cfg.degrade_watermark
        )
        free = self.free
        pending = sorted(requests, key=lambda r: (r.arrival_ns, r.req_id))
        next_arrival = 0
        degraded: Dict[int, bool] = {}
        outcomes: List[RequestOutcome] = []
        clock = 0.0
        last_event = 0.0
        self.setup()

        def trace(request: Request, status: str, policy: str,
                  served: Optional[DecodeResult] = None, **phases: Any) -> None:
            if tel is not None:
                tel.trace_query(
                    request.req_id, request.tenant, request.arrival_ns,
                    status, policy, **phases, **self.span_args(served),
                )

        def admit(request: Request) -> None:
            verdict, evicted = queue.offer(request)
            if evicted is not None:
                outcomes.append(
                    RequestOutcome(
                        req_id=evicted.req_id,
                        tenant=evicted.tenant,
                        status=DROPPED,
                        policy_requested=evicted.policy,
                        wait_ns=request.arrival_ns - evicted.arrival_ns,
                    )
                )
                degraded.pop(evicted.req_id, None)
                trace(evicted, DROPPED, evicted.policy,
                      start_ns=request.arrival_ns)
            if verdict == "rejected":
                outcomes.append(
                    RequestOutcome(
                        req_id=request.req_id,
                        tenant=request.tenant,
                        status=REJECTED,
                        policy_requested=request.policy,
                    )
                )
                trace(request, REJECTED, request.policy)
            else:
                degraded[request.req_id] = verdict == "admitted-degraded"

        while next_arrival < len(pending) or len(queue):
            if bar is not None:
                bar.observe(
                    len(outcomes), lambda: self.barrier_state(rng, outcomes)
                )
            if not len(queue):
                admit(pending[next_arrival])
                next_arrival += 1
                continue
            head = queue.peek()
            if head is None:  # unreachable: guarded by len(queue) above
                raise RuntimeError(
                    "admission queue reported non-empty but has no head"
                )
            est = max(head.arrival_ns, clock)
            # arrivals strictly before the earliest possible service come first
            if (
                next_arrival < len(pending)
                and pending[next_arrival].arrival_ns <= est
            ):
                admit(pending[next_arrival])
                next_arrival += 1
                continue
            route = self.route(head, est, max(0.0, free["pim"] - est))
            start = max(est, free[route.prefill_resource])
            # ... and arrivals while the head waits for its resource may
            # still evict it (drop-oldest) or shed themselves: ingest, redo
            if (
                next_arrival < len(pending)
                and pending[next_arrival].arrival_ns <= start
            ):
                admit(pending[next_arrival])
                next_arrival += 1
                continue

            queue.pop(start)
            clock = start
            was_degraded = degraded.pop(head.req_id, False)
            wait_ns = start - head.arrival_ns

            # adaptive remapping: price the request's MapID/arena mismatch
            # on its PIM phases, and let the controller observe every
            # outcome (possibly migrating between requests on the PIM
            # timeline).  Without a controller the multiplier is exactly
            # 1.0 and the tick is a no-op, so the run is unchanged.
            k_req = ada.ideal_map_id(head.prefill_tokens) if ada is not None else 0
            self.pim_mult = ada.pim_multiplier(k_req) if ada is not None else 1.0

            def record(status: str, **fields: Any) -> None:
                fields.setdefault("fallbacks", route.fallbacks)
                outcomes.append(
                    RequestOutcome(
                        req_id=head.req_id,
                        tenant=head.tenant,
                        status=status,
                        policy_requested=head.policy,
                        policy_served=route.policy,
                        wait_ns=wait_ns,
                        **fields,
                    )
                )

            def adaptive_tick(served: bool, ttft: float, pim_base_ns: float) -> None:
                nonlocal last_event
                if ada is None:
                    return
                migration_ns = ada.tick(
                    head.req_id,
                    last_event,
                    k_req,
                    served,
                    ttft,
                    pim_base_ns,
                    pim_obs_ns=pim_base_ns * self.pim_mult,
                    pim_ok=route.pim_allowed,
                    brownout=route.brownout_active,
                )
                if migration_ns > 0.0:
                    free["pim"] = max(free["pim"], last_event) + migration_ns
                    last_event = free["pim"]

            # boundary 1: admission -> prefill
            if start > head.deadline_abs_ns:
                record(TIMED_OUT)
                trace(head, TIMED_OUT, route.policy, start_ns=start)
                last_event = max(last_event, start)
                adaptive_tick(False, 0.0, 0.0)
                continue

            shed_reason = self.begin_request(head, start)
            if shed_reason is not None:
                record(REJECTED, fallbacks=route.fallbacks + (shed_reason,))
                trace(head, REJECTED, route.policy, start_ns=start,
                      reason=shed_reason)
                last_event = max(last_event, start)
                adaptive_tick(False, 0.0, 0.0)
                continue

            prefill_pim = route.prefill_resource == "pim"
            prefill_ns = route.prefill_ns
            if prefill_pim:
                prefill_ns *= self.pim_mult
            prefill_end, ok, retries_p, backoff_p = core.run_phase(
                start,
                prefill_ns + self.prefill_overhead(head, route, est, start),
                route.prefill_component,
                rng,
            )
            free[route.prefill_resource] = prefill_end
            last_event = max(last_event, prefill_end)
            prefill_pim_ns = route.prefill_ns if prefill_pim else 0.0
            if not ok:
                record(ABORTED, retries=retries_p, backoff_ns=backoff_p)
                trace(head, ABORTED, route.policy,
                      start_ns=start, prefill_end_ns=prefill_end,
                      prefill_resource=route.prefill_resource,
                      retries=retries_p)
                self.abandon(head, prefill_end)
                adaptive_tick(False, 0.0, prefill_pim_ns)
                continue
            ttft_ns = prefill_end - head.arrival_ns

            # boundary 2: prefill -> decode (first token must be in budget)
            if prefill_end > head.deadline_abs_ns:
                record(TIMED_OUT, ttft_ns=ttft_ns, retries=retries_p,
                       backoff_ns=backoff_p)
                trace(head, TIMED_OUT, route.policy,
                      start_ns=start, prefill_end_ns=prefill_end,
                      prefill_resource=route.prefill_resource)
                self.abandon(head, prefill_end)
                adaptive_tick(False, 0.0, prefill_pim_ns)
                continue

            decode_tokens = head.decode_tokens
            if was_degraded:
                decode_tokens = max(
                    1, min(decode_tokens, cfg.degraded_decode_tokens)
                )
            result = self.decode(head, route, prefill_end, decode_tokens, rng)
            last_event = max(last_event, result.end_ns)
            decode_start = (
                result.start_ns if result.start_ns is not None else prefill_end
            )
            settled: Dict[str, Any] = dict(
                ttft_ns=ttft_ns,
                retries=retries_p + result.retries,
                backoff_ns=backoff_p + result.backoff_ns,
                fallbacks=route.fallbacks + result.fallbacks,
            )
            phases: Dict[str, Any] = dict(
                start_ns=start, prefill_end_ns=prefill_end,
                decode_start_ns=decode_start, end_ns=result.end_ns,
                prefill_resource=route.prefill_resource,
                decode_resource=result.resource,
                context_tokens=head.prefill_tokens,
            )
            pim_ns = prefill_pim_ns + result.pim_ns
            if not result.ok:
                record(ABORTED, **settled)
                trace(head, ABORTED, route.policy, **phases)
                self.abandon(head, result.end_ns)
                adaptive_tick(False, 0.0, pim_ns)
                continue

            status = SERVED_DEGRADED if was_degraded else SERVED
            record(
                status,
                ttlt_ns=result.end_ns - head.arrival_ns,
                decode_tokens_served=result.tokens_served,
                **settled,
            )
            self.finish(head, result.end_ns)
            trace(head, status, route.policy, served=result, **phases)
            self.trace_decode(head, prefill_end, result)
            # the controller sees *service* TTFT (queue wait excluded):
            # its canary judges the mapping, not the admission backlog
            adaptive_tick(True, ttft_ns - wait_ns, pim_ns)

        end_ns = max(
            last_event, pending[-1].arrival_ns if pending else 0.0, clock
        )
        self.teardown(end_ns)
        if bar is not None:
            final = self.barrier_state(rng, outcomes, full=True)
            final["duration_ns"] = end_ns
            bar.snap("final", len(outcomes), final)
        return runtime.report(
            outcomes, queue.stats, end_ns,
            adaptive=ada.report() if ada is not None else None,
            workload=self.section(),
        )

    # -- replay barriers -----------------------------------------------

    def barrier_state(
        self,
        rng: random.Random,
        outcomes: List[RequestOutcome],
        full: bool = False,
    ) -> Dict[str, object]:
        """State components for one replay-diff barrier: the RNG stream
        position, both resource timelines, outcome progress, the
        adaptive arena (PTEs + journal cursor; whole-arena CRC when
        *full*), and the metrics snapshot hash when telemetry rides
        along.  Reads only — a barrier must never perturb the run."""
        runtime = self.runtime
        state: Dict[str, object] = {
            "rng": rng.getstate(),
            "free_soc": self.free["soc"],
            "free_pim": self.free["pim"],
            "outcomes": len(outcomes),
            "last_outcome": outcomes[-1].req_id if outcomes else -1,
        }
        if runtime.adaptive is not None:
            state.update(runtime.adaptive.arena.barrier_state(full=full))
        if runtime.telemetry is not None:
            state["metrics"] = runtime.telemetry.metrics.snapshot()
        return state

    # -- telemetry -----------------------------------------------------

    def span_args(self, served: Optional[DecodeResult] = None) -> Dict[str, Any]:
        """Extra args on a request's root span.  Workload loops tag every
        span with their name (a served decode also gets its own
        workload-lane span); chat records a served request's decode
        tokens."""
        if self.spec is not None:
            return {"workload": self.name}
        return {} if served is None else {"decode_tokens": served.tokens_served}

    def trace_decode(
        self, head: Request, decode_start_ns: float, result: DecodeResult
    ) -> None:
        """Emit a workload-lane span for a served request's decode
        (sampled like every other span; simulated time only)."""
        tel = self.runtime.telemetry
        args = self.decode_span_args(head)
        if tel is None or args is None or result.end_ns <= decode_start_ns:
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
    runtime: ServingRuntime, requests: List[Request]
) -> ServingReport:
    """Run *requests* through the whole-request loop whose decode
    matches ``runtime.workload`` (chat when it is None)."""
    from repro.workloads.coresident import CoResidencyLoop
    from repro.workloads.moe import ExpertPlacementLoop
    from repro.workloads.specs import (
        CoResidencySpec,
        ExpertPlacementSpec,
        SpeculativeSpec,
    )
    from repro.workloads.speculative import SpeculativeLoop

    spec = runtime.workload
    if spec is None:
        return WorkloadLoop(runtime).run(requests)
    if isinstance(spec, SpeculativeSpec):
        return SpeculativeLoop(runtime, spec).run(requests)
    if isinstance(spec, ExpertPlacementSpec):
        return ExpertPlacementLoop(runtime, spec).run(requests)
    if isinstance(spec, CoResidencySpec):
        return CoResidencyLoop(runtime, spec).run(requests)
    raise TypeError(
        f"runtime.workload must be a SpeculativeSpec, ExpertPlacementSpec, "
        f"or CoResidencySpec, got {type(spec).__name__}"
    )
