"""Continuous-batching serving loop over a bounded KV block pool.

:class:`KvServingLoop` is the :class:`~repro.workloads.runtime.WorkloadLoop`
that :class:`~repro.serving.runtime.ServingRuntime` runs when
``ServingConfig.kv_blocks > 0``.  It keeps the base loop's run
lifecycle, admission step, outcome list and span emission, and replaces
whole-request stepping (:meth:`KvServingLoop.drive`) with an event loop
that makes the KV cache a first-class resource:

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

Every outcome is a standard :class:`RequestOutcome`, kept in the loop's
outcome list; the KV-side counters land in ``ServingReport.kv``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.kvcache.block import KvPoolExhausted
from repro.kvcache.manager import KvCacheManager
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
from repro.workloads.runtime import WorkloadLoop, next_arrival_ns

__all__ = ["KvServingLoop", "run_kv_serving"]


class _Seq:
    """Mutable per-request serving state (one per admitted request)."""

    __slots__ = (
        "request",
        "degraded",
        "recompute_tokens",
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
        "prefill_resource",
        "decode_resource",
    )

    def __init__(self, request: Request, degraded: bool, decode_budget: int) -> None:
        self.request = request
        self.degraded = degraded
        #: tokens the prefill in flight computes (its prefix-cache miss)
        self.recompute_tokens = 0
        self.wait_ns = 0.0
        self.ttft_ns = 0.0
        self.retries = 0
        self.backoff_ns = 0.0
        self.fallbacks: Tuple[str, ...] = ()
        self.ctx = 0  # tokens committed to KV (context so far)
        self.remaining = decode_budget  # tokens still to decode
        self.served_tokens = 0
        self.recomputes = 0
        self.policy_served = ""
        #: the units that ran its first prefill and its decode, for spans
        self.prefill_resource = ""
        self.decode_resource = ""

    @property
    def prefill_total(self) -> int:
        """Tokens the next prefill must cover: the original prompt on
        first admission, the full regrown context on recompute."""
        return self.ctx if self.recomputes else self.request.prefill_tokens


#: KV pressure governor watermarks: the fraction of the pool that is
#: live and unreclaimable; admissions degrade while above the high one
#: and recover below the low one
KV_PRESSURE_HIGH = 0.9
KV_PRESSURE_LOW = 0.7


class KvServingLoop(WorkloadLoop):
    """Paged-KV continuous batching (see the module docstring)."""

    def __init__(self, runtime: ServingRuntime) -> None:
        super().__init__(runtime)
        cfg = runtime.config
        #: the most tokens one sequence may ever hold: the whole pool
        self.cap_tokens = cfg.kv_blocks * cfg.block_tokens
        self.pool = BlockPool(cfg.kv_blocks, KvSpec(block_tokens=cfg.block_tokens))
        self.kv = KvCacheManager(self.pool, prefix_sharing=cfg.prefix_sharing)
        self.governor = BrownoutController(KV_PRESSURE_HIGH, KV_PRESSURE_LOW)
        self.seqs: Dict[int, _Seq] = {}  # req_id -> state, set at admission
        self.recompute: Deque[_Seq] = deque()
        self.running: List[_Seq] = []
        #: ``(end_ns, seq, ok, pim_decode)`` of the prefill in flight
        self.prefill_inflight: Optional[Tuple[float, _Seq, bool, bool]] = None
        #: ``(end_ns, participants)`` of the PIM decode round in flight
        self.round_inflight: Optional[Tuple[float, List[_Seq]]] = None
        #: ``(end_ns, seq, ok)`` of every SoC decode in flight
        self.soc_jobs: List[Tuple[float, _Seq, bool]] = []
        #: KV-exhausted with work in flight: wait for a completion
        self.stalled = False
        self.counts = {"kv_rejections": 0, "kv_clipped": 0, "kv_degraded": 0}

    # -- lifecycle -----------------------------------------------------

    def drive(self, pending: Sequence[Request]) -> None:
        """The continuous-batching event loop: dispatch rounds and
        prefills until quiescent, then take the earliest event
        (arrival, prefill end, round end, SoC decode end; ties in that
        order)."""
        bar = self.runtime.barriers
        outcomes = self.outcomes
        queue = self.queue
        recompute = self.recompute
        running = self.running
        soc_jobs = self.soc_jobs
        inf = math.inf
        next_arrival = 0
        while True:
            if bar is not None:
                bar.observe(len(outcomes), self.barrier_state)
            upcoming = next_arrival_ns(pending, next_arrival)
            # dispatch until quiescent: rounds and prefills may unblock
            # each other (a timed-out head pops, a preemption frees
            # blocks, ...)
            progressed = True
            while progressed:
                progressed = False
                if self.round_inflight is None and running:
                    progressed |= self.start_round(self.clock)
                if self.prefill_inflight is None:
                    progressed |= self.start_prefill(self.clock, upcoming)

            prefill = self.prefill_inflight
            rnd = self.round_inflight
            t, kind = min(
                (upcoming, 0),
                (inf if prefill is None else prefill[0], 1),
                (inf if rnd is None else rnd[0], 2),
                (min(j[0] for j in soc_jobs) if soc_jobs else inf, 3),
            )
            if t == inf:
                if len(queue) or recompute:
                    raise RuntimeError(
                        "scheduler wedged: waiting work with nothing in flight"
                    )
                return
            self.clock = max(self.clock, t)
            self.last_event = max(self.last_event, t)
            if kind == 0:
                self.admit(pending[next_arrival], t)
                next_arrival += 1
                continue
            self.stalled = False
            if prefill is not None and kind == 1:
                self.prefill_inflight = None
                _, seq, ok, pim_ok = prefill
                self.on_prefill_end(t, seq, ok, pim_ok)
            elif rnd is not None and kind == 2:
                self.round_inflight = None
                self.on_round_end(t, rnd[1])
            else:
                soc_jobs.sort(key=lambda j: j[0])
                _, seq, ok = soc_jobs.pop(0)
                self.on_soc_end(t, seq, ok)

    def teardown(self, end_ns: float) -> None:
        self.governor.finish(end_ns)

    def sections(self) -> Dict[str, Optional[Dict]]:
        """The report's ``kv`` section: the manager's counters, the
        loop's admission counters and the audit; the manager's metrics
        go to telemetry."""
        kv = self.kv
        intervals = self.governor.intervals
        audit_failures = kv.audit()
        stats = kv.stats()
        stats.update(self.counts)
        stats.update(
            prefill_tokens_saved=kv.prefix_hit_tokens,
            pressure_windows=len(intervals),
            pressure_total_ms=sum(e - s for s, e in intervals) / 1e6,
            audit_failures=list(audit_failures),
        )
        if self.telemetry is not None:
            kv.publish_metrics(self.telemetry.metrics)
        return {"kv": stats}

    def barrier_state(self, full: bool = False) -> Dict[str, object]:
        """State components for one replay-diff barrier, *full* or not:
        RNG stream position, both resource timelines, pool occupancy +
        free-list order + journal cursor, and outcome progress."""
        pool = self.pool
        state: Dict[str, object] = {
            "rng": self.rng.getstate(),
            "free_soc": self.free["soc"],
            "free_pim": self.free["pim"],
            "outcomes": len(self.outcomes),
            "pool": (pool.used, pool.allocs, pool.frees, tuple(pool._free)),
            "pool_journal": None if pool.journal is None
            else pool.journal.cursor(),
        }
        if self.telemetry is not None:
            state["metrics"] = self.telemetry.metrics.snapshot()
        return state

    def span_args(self, served: Any = None) -> Dict[str, Any]:
        return {"kv_loop": True}

    # -- admission -----------------------------------------------------

    def admit(self, request: Request, now: float) -> None:
        """Offer one arrival: shed it when it could never fit the pool
        alone (before it burns queue capacity or compute), else queue it
        with its decode budget degraded under KV pressure and clipped to
        the pool."""
        cap_tokens = self.cap_tokens
        counts = self.counts
        if request.prefill_tokens + 1 > cap_tokens:
            counts["kv_rejections"] += 1
            self.record(request, REJECTED, end_ns=now)
            self.trace(
                request, REJECTED, request.policy, reason="kv-demand-exceeds-pool"
            )
            return
        verdict, evicted = self.offer(request)
        if evicted is not None:
            self.seqs.pop(evicted.req_id, None)
        if verdict == REJECTED:
            return
        degraded = self.degraded.pop(request.req_id)
        if self.governor.observe(self.kv.pressure(), now) and not degraded:
            degraded = True
            counts["kv_degraded"] += 1
        budget = request.decode_tokens
        if degraded:
            budget = max(1, min(budget, self.degraded_decode_tokens))
        if request.prefill_tokens + budget > cap_tokens:
            budget = max(1, cap_tokens - request.prefill_tokens)
            counts["kv_clipped"] += 1
        self.seqs[request.req_id] = _Seq(request, degraded, budget)

    # -- PIM decode rounds ---------------------------------------------

    def start_round(self, now: float) -> bool:
        """Put one batched PIM decode round in flight: every running
        sequence grows by one token, the youngest running sequence
        preempted while the pool cannot provide."""
        kv = self.kv
        running = self.running
        free = self.free
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
                    # seq itself is running, so a victim always exists
                    victim = max(
                        running, key=lambda s: (s.request.arrival_ns, s.request.req_id)
                    )
                    running.remove(victim)
                    self.preempt(victim, rstart)
                    acted = True
                    if victim is seq:
                        break
        participants = [s for s in participants if s in running]
        if not participants:
            return acted
        step_ns = self.core.engine.pim_decode_step_ns
        end = rstart + sum(step_ns(s.ctx) for s in participants)
        free["pim"] = end
        self.last_event = max(self.last_event, end)
        # batched rounds are modeled fault-free; keep the breaker warm
        self.core.pim_breaker.record_success(end)
        self.round_inflight = (end, participants)
        return True

    def on_round_end(self, now: float, participants: List[_Seq]) -> None:
        commit = self.kv.commit
        running = self.running
        for seq in participants:
            commit(seq.request.req_id, 1, now)
            seq.ctx += 1
            seq.served_tokens += 1
            seq.remaining -= 1
            if seq.remaining <= 0:
                running.remove(seq)
                self._settle(seq, now)

    def preempt(self, seq: _Seq, now: float) -> None:
        """Free *seq*'s blocks (its published prefix stays cached) and
        queue it to recompute its context; it keeps its unserved tokens."""
        self.kv.preempt(seq.request.req_id, now)
        seq.recomputes += 1
        self.recompute.append(seq)
        self.stalled = False  # preemption freed blocks: a deferred begin may fit now

    # -- prefill -------------------------------------------------------

    def start_prefill(self, now: float, upcoming: float) -> bool:
        """Try to put one prefill in flight (recompute queue first);
        *upcoming* is when the next pending request arrives."""
        if self.stalled:
            return False
        queue = self.queue
        recompute = self.recompute
        free = self.free
        kv = self.kv
        is_recompute = bool(recompute)
        if is_recompute:
            seq = recompute[0]
        else:
            head = queue.peek()
            if head is None:
                return False
            seq = self.seqs[head.req_id]
        request = seq.request
        est = max(now, request.arrival_ns)
        # arrivals up to the earliest possible service come first (they
        # may evict this head under drop-oldest)
        if not is_recompute and upcoming <= est:
            return False
        conv_key = request.conversation_id
        total = seq.prefill_total
        cached = kv.peek_cached(conv_key, total)
        priced = max(1, total - cached)
        route = self.core.route(
            request, est, max(0.0, free["pim"] - est), prefill_tokens=priced
        )
        start = max(est, free[route.prefill_resource])
        if not is_recompute:
            if upcoming <= start:
                return False
            # boundary 1: admission -> prefill
            if start > request.deadline_abs_ns:
                queue.pop(start)
                seq.wait_ns = start - request.arrival_ns
                seq.policy_served = route.policy
                seq.fallbacks = route.fallbacks
                self._settle(seq, start, TIMED_OUT)
                self.clock = start
                self.last_event = max(self.last_event, start)
                return True

        try:
            seq.recompute_tokens = kv.begin(
                request.req_id, conv_key, total, start
            ).recompute_tokens
        except KvPoolExhausted:
            if self.round_inflight or self.soc_jobs or self.running:
                self.stalled = True  # a completion will free blocks; retry then
                return False
            # nothing in flight and still no room: the pool is too small
            # even after evicting every cached block — shed, do not hang
            if is_recompute:
                recompute.popleft()
            else:
                queue.pop(start)
            self.counts["kv_rejections"] += 1
            seq.policy_served = route.policy
            self._settle(seq, start, REJECTED)
            self.clock = start
            return True

        if is_recompute:
            recompute.popleft()
        else:
            queue.pop(start)
            seq.wait_ns = start - request.arrival_ns
            seq.prefill_resource = route.prefill_resource
        seq.policy_served = route.policy
        seq.fallbacks = seq.fallbacks + tuple(
            f for f in route.fallbacks if f not in seq.fallbacks
        )
        self.clock = start
        end, ok, retries, backoff = self.core.run_phase(
            start, route.prefill_ns, route.prefill_component, self.rng
        )
        free[route.prefill_resource] = end
        self.last_event = max(self.last_event, end)
        seq.retries += retries
        seq.backoff_ns += backoff
        self.prefill_inflight = (end, seq, ok, route.pim_decode)
        return True

    def on_prefill_end(self, now: float, seq: _Seq, ok: bool, pim_ok: bool) -> None:
        if not ok:
            self._settle(seq, now, ABORTED)
            return
        request = seq.request
        self.kv.commit(request.req_id, seq.recompute_tokens, now)
        seq.ctx = seq.prefill_total
        if seq.ttft_ns == 0.0:
            seq.ttft_ns = now - request.arrival_ns
            # boundary 2: the first token must land inside the budget
            if now > request.deadline_abs_ns:
                self._settle(seq, now, TIMED_OUT)
                return
        if seq.remaining <= 0:
            self._settle(seq, now)
        elif pim_ok:
            seq.decode_resource = "pim"
            self.running.append(seq)
        else:
            seq.decode_resource = "soc"
            self.decode_on_soc(seq, now)

    # -- SoC decode ----------------------------------------------------

    def decode_on_soc(self, seq: _Seq, now: float) -> None:
        """Blocking SoC decode with its capacity reserved up front: when
        the pool cannot cover the full budget, grow as far as it will
        go and clip (the demand pre-check guarantees a solo sequence
        fits); when not one token fits, recompute later from the cache."""
        kv = self.kv
        B = kv.block_tokens
        req_id = seq.request.req_id
        state = kv._seqs[req_id]
        fit = state.capacity(B) - state.tokens
        while fit < seq.remaining:
            try:
                kv.ensure_capacity(req_id, fit + B, now)
            except KvPoolExhausted:
                break
            fit = state.capacity(B) - state.tokens
        if fit <= 0:
            self.preempt(seq, now)
            return
        if fit < seq.remaining:
            seq.remaining = fit
            self.counts["kv_clipped"] += 1
        core = self.core
        result = core.decode_phase(
            now, core.engine.decode_total_ns(seq.ctx, seq.remaining, False),
            "soc", seq.remaining, self.free, self.rng,
        )
        seq.retries += result.retries
        seq.backoff_ns += result.backoff_ns
        self.soc_jobs.append((result.end_ns, seq, result.ok))

    def on_soc_end(self, now: float, seq: _Seq, ok: bool) -> None:
        if not ok:
            self._settle(seq, now, ABORTED)
            return
        self.kv.commit(seq.request.req_id, seq.remaining, now)
        seq.ctx += seq.remaining
        seq.served_tokens += seq.remaining
        seq.remaining = 0
        self._settle(seq, now)

    # -- outcomes ------------------------------------------------------

    def _settle(self, seq: _Seq, now: float, status: Optional[str] = None) -> None:
        """Close *seq* at *now*: release the KV blocks it holds, record
        its outcome (served, degraded or not, when *status* is None)
        and its span, and forget it."""
        request = seq.request
        req_id = request.req_id
        kv = self.kv
        if kv.contains(req_id):
            kv.release(req_id, now)
        served = status is None
        if status is None:
            status = SERVED_DEGRADED if seq.degraded else SERVED
        arrival = request.arrival_ns
        self.record(
            request,
            status,
            policy_served=seq.policy_served,
            wait_ns=seq.wait_ns,
            ttft_ns=seq.ttft_ns,
            ttlt_ns=(now - arrival) if served else 0.0,
            decode_tokens_served=seq.served_tokens,
            retries=seq.retries,
            backoff_ns=seq.backoff_ns,
            fallbacks=seq.fallbacks,
            end_ns=now,
        )
        if self.telemetry is not None:
            # Reconstruct the phase boundaries from the per-sequence
            # timing fields the outcome already carries — the span tree
            # is derived data, never an extra clock.
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
            self.trace(
                request,
                status,
                request.policy,
                start_ns=start,
                prefill_end_ns=prefill_end,
                decode_start_ns=decode_start,
                end_ns=now if decode_start is not None else None,
                prefill_resource=seq.prefill_resource,
                decode_resource=seq.decode_resource,
                context_tokens=seq.ctx,
                decode_tokens=seq.served_tokens,
                retries=seq.retries,
                recomputes=seq.recomputes,
            )
        self.seqs.pop(req_id, None)


def run_kv_serving(
    runtime: ServingRuntime, requests: Sequence[Request]
) -> ServingReport:
    """Run *requests* through *runtime* with paged-KV continuous batching."""
    return KvServingLoop(runtime).run(requests)
