"""Continuous-batching serving loop over a bounded KV block pool.

:class:`~repro.serving.runtime.ServingRuntime` delegates here when
``ServingConfig.kv_blocks > 0``.  The whole-request loop prices requests
on two serialized timelines; this one makes the KV cache a first-class
resource:

* **admission** is gated on real block-pool state: a request whose
  solo KV demand exceeds the pool is rejected outright (it could never
  finish), oversized decode budgets are clipped to fit, and a pressure
  governor — a :class:`~repro.serving.breaker.BrownoutController` over
  :meth:`KvCacheManager.pressure` — degrades admissions while the pool
  runs hot.  Those checks wrap the whole-request loop's own admission
  step (:meth:`~repro.workloads.runtime.WorkloadLoop.offer`);
* **prefill** is priced on ``recompute_tokens`` only: the prefix-tree
  hit for a conversation's earlier turns is subtracted before routing,
  so shared-prefix turns are measurably cheaper;
* **decode on PIM** runs as one continuous batch in *rounds* (one
  token per running sequence per round, round cost = sum of the
  per-sequence step costs); sequences join at round boundaries after
  their prefill and leave when their budget is spent.  Transient-fault
  pricing applies to prefills and SoC decodes; batched rounds are
  modeled fault-free (a per-round retry would stall every member);
* **preemption**: a sequence that cannot grow by one block when the
  pool is exhausted (and nothing is evictable) preempts the youngest
  running sequence — its blocks are freed, its published prefix stays
  cached, and it re-enters through a priority recompute queue whose
  prefill hits that cached prefix.

Every outcome is a standard :class:`RequestOutcome`, kept in that
loop's outcome list; the KV-side counters land in ``ServingReport.kv``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.kvcache.block import KvPoolExhausted
from repro.kvcache.manager import KvCacheManager, SeqAdmission
from repro.kvcache.pool import BlockPool, KvSpec
from repro.serving.breaker import BrownoutController
from repro.serving.runtime import (
    ABORTED,
    REJECTED,
    SERVED,
    SERVED_DEGRADED,
    TIMED_OUT,
    ServingReport,
    ServingRuntime,
)
from repro.serving.workload import Request
from repro.workloads.runtime import WorkloadLoop

__all__ = ["run_kv_serving"]


class _KvAdmission(WorkloadLoop):
    """The paged-KV loop's admission queue, RNG, timelines and outcome
    list: :meth:`WorkloadLoop.offer` and :meth:`WorkloadLoop.record`,
    with every span tagged as the KV loop's.  The continuous-batching
    core in :func:`run_kv_serving` is its own."""

    def span_args(self, served: Any = None) -> Dict[str, Any]:
        return {"kv_loop": True}


class _Seq:
    """Mutable per-request serving state (one per admitted request)."""

    __slots__ = (
        "request",
        "degraded",
        "decode_budget",
        "admission",
        "wait_ns",
        "ttft_ns",
        "retries",
        "backoff_ns",
        "fallbacks",
        "ctx",
        "remaining",
        "served_tokens",
        "recomputes",
        "policy_served",
    )

    def __init__(self, request: Request, degraded: bool, decode_budget: int) -> None:
        self.request = request
        self.degraded = degraded
        self.decode_budget = decode_budget
        self.admission: Optional[SeqAdmission] = None
        self.wait_ns = 0.0
        self.ttft_ns = 0.0
        self.retries = 0
        self.backoff_ns = 0.0
        self.fallbacks: Tuple[str, ...] = ()
        self.ctx = 0  # tokens committed to KV (context so far)
        self.remaining = decode_budget
        self.served_tokens = 0
        self.recomputes = 0
        self.policy_served = ""

    @property
    def conv_key(self) -> Optional[int]:
        return self.request.conversation_id

    @property
    def prefill_total(self) -> int:
        """Tokens the next prefill must cover: the original prompt on
        first admission, the full regrown context on recompute."""
        return self.ctx if self.recomputes else self.request.prefill_tokens


def run_kv_serving(
    runtime: ServingRuntime, requests: List[Request]
) -> ServingReport:
    """Run *requests* through *runtime* with paged-KV continuous batching."""
    cfg = runtime.config
    engine = runtime.engine
    core = runtime.core
    tel = runtime.telemetry
    if tel is not None:
        tel.ensure_calibrated(engine)
    loop = _KvAdmission(runtime)
    rng = loop.rng
    queue = loop.queue
    free = loop.free
    outcomes = loop.outcomes
    B = cfg.block_tokens
    pool = BlockPool(cfg.kv_blocks, KvSpec(block_tokens=B))
    kv = KvCacheManager(pool, prefix_sharing=cfg.prefix_sharing)
    governor = BrownoutController(cfg.kv_pressure_high, cfg.kv_pressure_low)

    pending = sorted(requests, key=lambda r: (r.arrival_ns, r.req_id))
    next_arrival = 0
    seqs: Dict[int, _Seq] = {}  # req_id -> state, set at admission
    recompute: Deque[_Seq] = deque()
    running: List[_Seq] = []
    prefill_inflight: Optional[Tuple[float, _Seq, bool, int, float]] = None
    round_inflight: Optional[Tuple[float, List[_Seq]]] = None
    soc_jobs: List[Tuple[float, _Seq, bool, int, float]] = []
    clock = 0.0
    last_event = 0.0
    stalled = False  # KV-exhausted with work in flight: wait for a completion
    kv_rejections = 0
    kv_clipped = 0
    kv_degraded = 0

    cap_tokens = cfg.kv_blocks * B

    def finish(seq: _Seq, status: str, now: float, ttlt: bool = False) -> None:
        loop.record(
            seq.request,
            status,
            policy_served=seq.policy_served,
            wait_ns=seq.wait_ns,
            ttft_ns=seq.ttft_ns,
            ttlt_ns=(now - seq.request.arrival_ns) if ttlt else 0.0,
            decode_tokens_served=seq.served_tokens,
            retries=seq.retries,
            backoff_ns=seq.backoff_ns,
            fallbacks=seq.fallbacks,
        )
        if tel is not None:
            # Reconstruct the phase boundaries from the per-sequence
            # timing fields the outcome already carries — the span tree
            # is derived data, never an extra clock.
            request = seq.request
            arrival = request.arrival_ns
            start = arrival + seq.wait_ns if seq.policy_served else None
            if seq.ttft_ns > 0.0:
                prefill_end: Optional[float] = arrival + seq.ttft_ns
            elif status == ABORTED and start is not None:
                prefill_end = now  # the failed prefill itself
            else:
                prefill_end = None
            decode_start = (
                prefill_end
                if prefill_end is not None and now > prefill_end
                else None
            )
            tel.trace_query(
                request.req_id,
                request.tenant,
                arrival,
                status,
                request.policy,
                start_ns=start,
                prefill_end_ns=prefill_end,
                decode_start_ns=decode_start,
                end_ns=now if decode_start is not None else None,
                prefill_resource=seq.policy_served,
                decode_resource=seq.policy_served,
                context_tokens=seq.ctx,
                decode_tokens=seq.served_tokens,
                retries=seq.retries,
                recomputes=seq.recomputes,
                kv_loop=True,
            )

    def admit(request: Request, now: float) -> None:
        nonlocal kv_rejections, kv_clipped, kv_degraded
        # a request that could never fit the pool alone is shed here,
        # before it burns queue capacity or compute
        if request.prefill_tokens + 1 > cap_tokens:
            kv_rejections += 1
            loop.record(request, REJECTED)
            if tel is not None:
                tel.trace_query(
                    request.req_id, request.tenant, request.arrival_ns,
                    REJECTED, request.policy, kv_loop=True,
                    reason="kv-demand-exceeds-pool",
                )
            return
        verdict, evicted = loop.offer(request)
        if evicted is not None:
            seqs.pop(evicted.req_id, None)
        if verdict == REJECTED:
            return
        degraded = loop.degraded.pop(request.req_id)
        if governor.observe(kv.pressure(), now) and not degraded:
            degraded = True
            kv_degraded += 1
        budget = request.decode_tokens
        if degraded:
            budget = max(1, min(budget, cfg.degraded_decode_tokens))
        if request.prefill_tokens + budget > cap_tokens:
            budget = max(1, cap_tokens - request.prefill_tokens)
            kv_clipped += 1
        seqs[request.req_id] = _Seq(request, degraded, budget)

    def youngest_running(exclude: Optional[_Seq] = None) -> Optional[_Seq]:
        candidates = [s for s in running if s is not exclude]
        if not candidates:
            return None
        return max(candidates, key=lambda s: (s.request.arrival_ns, s.request.req_id))

    def preempt(seq: _Seq, now: float) -> None:
        nonlocal stalled
        kv.preempt(seq.request.req_id, now)
        running.remove(seq)
        seq.remaining = seq.decode_budget - seq.served_tokens
        seq.recomputes += 1
        recompute.append(seq)
        stalled = False  # preemption freed blocks: a deferred begin may fit now

    def start_round(now: float) -> bool:
        nonlocal round_inflight, last_event
        rstart = max(now, free["pim"])
        acted = False
        participants: List[_Seq] = []
        for seq in list(running):
            if seq not in running:
                continue  # preempted as a victim earlier in this pass
            while True:
                try:
                    kv.ensure_capacity(seq.request.req_id, 1, rstart)
                    participants.append(seq)
                    break
                except KvPoolExhausted:
                    victim = youngest_running()
                    if victim is None:
                        return acted
                    preempt(victim, rstart)
                    acted = True
                    if victim is seq:
                        break
        participants = [s for s in participants if s in running]
        if not participants:
            return acted
        round_ns = sum(engine.pim_decode_step_ns(s.ctx) for s in participants)
        end = rstart + round_ns
        free["pim"] = end
        last_event = max(last_event, end)
        # batched rounds are modeled fault-free; keep the breaker warm
        core.pim_breaker.record_success(end)
        round_inflight = (end, participants)
        return True

    def start_prefill(now: float) -> bool:
        """Try to put one prefill in flight (recompute queue first)."""
        nonlocal prefill_inflight, stalled, kv_rejections, clock, last_event
        if stalled:
            return False
        is_recompute = bool(recompute)
        if is_recompute:
            seq = recompute[0]
            request = seq.request
            est = max(now, request.arrival_ns)
        else:
            if not len(queue):
                return False
            request = queue.peek()
            if request is None:  # unreachable: guarded by len(queue)
                raise RuntimeError("admission queue non-empty but has no head")
            seq = seqs[request.req_id]
            est = max(now, request.arrival_ns)
            # arrivals strictly before the earliest possible service come
            # first (they may evict this head under drop-oldest)
            if (
                next_arrival < len(pending)
                and pending[next_arrival].arrival_ns <= est
            ):
                return False
        total = seq.prefill_total
        cached = kv.peek_cached(seq.conv_key, total)
        priced = max(1, total - cached)
        route = core.route(
            request, est, max(0.0, free["pim"] - est), prefill_tokens=priced
        )
        start = max(est, free[route.prefill_resource])
        if (
            not is_recompute
            and next_arrival < len(pending)
            and pending[next_arrival].arrival_ns <= start
        ):
            return False

        if not is_recompute:
            # boundary 1: admission -> prefill
            if start > request.deadline_abs_ns:
                queue.pop(start)
                seq.wait_ns = start - request.arrival_ns
                seq.policy_served = route.policy
                seq.fallbacks = route.fallbacks
                finish(seq, TIMED_OUT, start)
                seqs.pop(request.req_id, None)
                clock = start
                last_event = max(last_event, start)
                return True

        try:
            seq.admission = kv.begin(request.req_id, seq.conv_key, total, start)
        except KvPoolExhausted:
            if prefill_inflight or round_inflight or soc_jobs or running:
                stalled = True  # a completion will free blocks; retry then
                return False
            # nothing in flight and still no room: the pool is too small
            # even after evicting every cached block — shed, do not hang
            if is_recompute:
                recompute.popleft()
            else:
                queue.pop(start)
            kv_rejections += 1
            seq.policy_served = route.policy
            finish(seq, REJECTED, start)
            seqs.pop(request.req_id, None)
            clock = start
            return True

        if not is_recompute:
            queue.pop(start)
            seq.wait_ns = start - request.arrival_ns
        else:
            recompute.popleft()
        seq.policy_served = route.policy
        seq.fallbacks = seq.fallbacks + tuple(
            f for f in route.fallbacks if f not in seq.fallbacks
        )
        clock = start
        end, ok, retries, backoff = core.run_phase(
            start, route.prefill_ns, route.prefill_component, rng
        )
        free[route.prefill_resource] = end
        last_event = max(last_event, end)
        seq.retries += retries
        seq.backoff_ns += backoff
        prefill_inflight = (end, seq, ok, route.pim_decode, route.brownout_active)
        return True

    def on_prefill_end(now: float, seq: _Seq, ok: bool, pim_ok: bool, brownout: bool) -> None:
        nonlocal kv_clipped
        req_id = seq.request.req_id
        if not ok:
            kv.release(req_id, now)
            finish(seq, ABORTED, now)
            seqs.pop(req_id, None)
            return
        if seq.admission is None:
            raise RuntimeError(f"request {req_id} finished prefill unadmitted")
        kv.commit(req_id, seq.admission.recompute_tokens, now)
        seq.ctx = seq.prefill_total if seq.recomputes else seq.request.prefill_tokens
        first_token = seq.ttft_ns == 0.0
        if first_token:
            seq.ttft_ns = now - seq.request.arrival_ns
            # boundary 2: the first token must land inside the budget
            if now > seq.request.deadline_abs_ns:
                kv.release(req_id, now)
                finish(seq, TIMED_OUT, now)
                seqs.pop(req_id, None)
                return
        if seq.remaining <= 0:
            kv.release(req_id, now)
            finish(seq, SERVED_DEGRADED if seq.degraded else SERVED, now, ttlt=True)
            seqs.pop(req_id, None)
            return
        if pim_ok:
            running.append(seq)
            return
        # SoC decode: blocking, capacity reserved up front; when the pool
        # cannot cover the full budget, grow as far as it will go and
        # clip (demand pre-check guarantees a solo sequence fits)
        state = kv._seqs[req_id]
        fit = state.capacity(B) - state.tokens
        while fit < seq.remaining:
            try:
                kv.ensure_capacity(req_id, fit + B, now)
            except KvPoolExhausted:
                break
            fit = state.capacity(B) - state.tokens
        if fit <= 0:
            # cannot even grow one token: recompute later from the cache
            kv.preempt(req_id, now)
            seq.remaining = seq.decode_budget - seq.served_tokens
            seq.recomputes += 1
            recompute.append(seq)
            return
        if fit < seq.remaining:
            seq.remaining = fit
            kv_clipped += 1
        decode_ns = engine.decode_total_ns(seq.ctx, seq.remaining, False)
        start = max(now, free["soc"])
        end, ok_d, retries, backoff = core.run_phase(start, decode_ns, "soc", rng)
        free["soc"] = end
        seq.retries += retries
        seq.backoff_ns += backoff
        soc_jobs.append((end, seq, ok_d, retries, backoff))

    def on_round_end(now: float, participants: List[_Seq]) -> None:
        for seq in participants:
            req_id = seq.request.req_id
            kv.commit(req_id, 1, now)
            seq.ctx += 1
            seq.served_tokens += 1
            seq.remaining -= 1
            if seq.remaining <= 0:
                kv.release(req_id, now)
                running.remove(seq)
                finish(
                    seq, SERVED_DEGRADED if seq.degraded else SERVED, now, ttlt=True
                )
                seqs.pop(req_id, None)

    def on_soc_end(now: float, seq: _Seq, ok: bool) -> None:
        req_id = seq.request.req_id
        if not ok:
            kv.release(req_id, now)
            finish(seq, ABORTED, now)
            seqs.pop(req_id, None)
            return
        kv.commit(req_id, seq.remaining, now)
        seq.ctx += seq.remaining
        seq.served_tokens += seq.remaining
        seq.remaining = 0
        kv.release(req_id, now)
        finish(seq, SERVED_DEGRADED if seq.degraded else SERVED, now, ttlt=True)
        seqs.pop(req_id, None)

    # -- replay barriers ---------------------------------------------------

    def barrier_state() -> Dict[str, object]:
        """State components for one replay-diff barrier on the kv loop:
        RNG stream position, both resource timelines, pool occupancy +
        free-list order + journal cursor, and outcome progress."""
        state: Dict[str, object] = {
            "rng": rng.getstate(),
            "free_soc": free["soc"],
            "free_pim": free["pim"],
            "outcomes": len(outcomes),
            "pool": (pool.used, pool.allocs, pool.frees, tuple(pool._free)),
            "pool_journal": None if pool.journal is None
            else pool.journal.cursor(),
        }
        if tel is not None:
            state["metrics"] = tel.metrics.snapshot()
        return state

    bar = runtime.barriers

    # -- the event loop ----------------------------------------------------

    while True:
        if bar is not None:
            bar.observe(len(outcomes), barrier_state)
        # dispatch until quiescent: rounds and prefills may unblock each
        # other (a timed-out head pops, a preemption frees blocks, ...)
        progressed = True
        while progressed:
            progressed = False
            if round_inflight is None and running:
                progressed |= start_round(clock)
            if prefill_inflight is None:
                progressed |= start_prefill(clock)

        events: List[Tuple[float, int, str]] = []
        if next_arrival < len(pending):
            events.append((pending[next_arrival].arrival_ns, 0, "arrival"))
        if prefill_inflight is not None:
            events.append((prefill_inflight[0], 1, "prefill"))
        if round_inflight is not None:
            events.append((round_inflight[0], 2, "round"))
        if soc_jobs:
            events.append((min(j[0] for j in soc_jobs), 3, "soc"))
        if not events:
            if len(queue) or recompute:
                raise RuntimeError(
                    "scheduler wedged: waiting work with nothing in flight"
                )
            break

        t, _, kind = min(events)
        clock = max(clock, t)
        last_event = max(last_event, t)
        if kind == "arrival":
            admit(pending[next_arrival], t)
            next_arrival += 1
        elif kind == "prefill" and prefill_inflight is not None:
            _, seq, ok, pim_ok, brownout = prefill_inflight
            prefill_inflight = None
            stalled = False
            on_prefill_end(t, seq, ok, pim_ok, brownout)
        elif kind == "round" and round_inflight is not None:
            _, participants = round_inflight
            round_inflight = None
            stalled = False
            on_round_end(t, participants)
        else:  # soc
            soc_jobs.sort(key=lambda j: j[0])
            _, seq, ok_d, _, _ = soc_jobs.pop(0)
            stalled = False
            on_soc_end(t, seq, ok_d)

    end_ns = max(last_event, pending[-1].arrival_ns if pending else 0.0, clock)
    governor.finish(end_ns)
    if bar is not None:
        final = barrier_state()
        final["duration_ns"] = end_ns
        bar.snap("final", len(outcomes), final)
    audit_failures = kv.audit()

    kv_stats = kv.stats()
    kv_stats.update(
        {
            "kv_rejections": kv_rejections,
            "kv_clipped": kv_clipped,
            "kv_degraded": kv_degraded,
            "prefill_tokens_saved": kv.prefix_hit_tokens,
            "pressure_windows": len(governor.intervals),
            "pressure_total_ms": sum(e - s for s, e in governor.intervals) / 1e6,
            "audit_failures": list(audit_failures),
        }
    )
    if tel is not None:
        kv.publish_metrics(tel.metrics)
    return runtime.report(outcomes, queue.stats, end_ns, kv=kv_stats)
