"""Speculative decoding as a serving workload (extension).

Draft+verify decoding replaces the target model's token-at-a-time GEMV
decode with **rounds**: the draft model proposes ``gamma`` tokens (gamma
cheap GEMV steps, PIM's forte), then the target model verifies the whole
batch in one GEMM pass (the SoC's forte — or PIM's, whichever the
policy's prefill router picks for a gamma-token batch).  The rapid
GEMV/GEMM interleave is exactly the phase switching FACIL's flexible
per-tensor mappings exist to serve: the same weights are read by both
access patterns round after round with no re-layout between.

The seeded acceptance model is the standard one: each drafted token is
accepted independently with probability ``acceptance_rate`` until the
first rejection truncates the round, and the verify pass always yields
one extra token (the correction at the rejection position, or the bonus
token after a clean round) — so a round produces ``accepted + 1`` tokens
and ``accepted + rejected == gamma`` holds exactly, per round.

KV discipline: speculated tokens are written on a **copy-on-write fork**
of the sequence (:meth:`KvCacheManager.fork`).  Settling the round
releases the fork — rejected tokens vanish with it, with pool refcounts
reconciling exactly — and commits only the produced tokens on the
parent.  Pool exhaustion mid-round preempts the sequence through the
existing preempt-and-recompute path and re-admits it against the prefix
cache.  ``audit()`` runs post-teardown; its findings gate the bench.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.engine.policies import InferenceEngine, policy_record
from repro.kvcache.block import KvPoolExhausted
from repro.kvcache.manager import KvCacheManager
from repro.kvcache.pool import BlockPool, KvSpec
from repro.llm.model_config import model_by_name
from repro.serving.device import Route
from repro.serving.runtime import ServingRuntime
from repro.serving.workload import Request
from repro.workloads.runtime import DecodeResult, WorkloadLoop, require_placed
from repro.workloads.specs import SpeculativeSpec

__all__ = ["SpeculativeLoop", "draft_round"]


def draft_round(
    rng: random.Random, gamma: int, acceptance_rate: float
) -> Tuple[int, int]:
    """One seeded acceptance draw: ``(accepted, rejected)`` with
    ``accepted + rejected == gamma`` always.

    Exactly *gamma* variates are consumed whatever the outcome, so the
    RNG stream position is a pure function of the round count — the
    property the replay/determinism oracles lean on.
    """
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma!r}")
    if not 0.0 <= acceptance_rate <= 1.0:
        raise ValueError(
            f"acceptance_rate must be in [0, 1], got {acceptance_rate!r}"
        )
    accepted = 0
    rejected_yet = False
    for _ in range(gamma):
        u = rng.random()
        if not rejected_yet and u < acceptance_rate:
            accepted += 1
        else:
            rejected_yet = True
    return accepted, gamma - accepted


class SpeculativeLoop(WorkloadLoop):
    """Serving loop with draft-GEMV / verify-GEMM decode rounds."""

    name = "speculative"

    def __init__(self, runtime: ServingRuntime, spec: SpeculativeSpec) -> None:
        super().__init__(runtime, spec)
        self.spec: SpeculativeSpec = spec
        self.draft_engine = InferenceEngine(
            runtime.engine.platform, model=model_by_name(spec.draft_model)
        )
        self.kv: Optional[KvCacheManager] = None
        #: prefill tokens admitted but not yet committed, per request
        self._pending_prefill: Dict[int, int] = {}
        #: child sequence ids live below every request id
        self._next_child = -1
        # conservation counters (per-run aggregates; per-round identity
        # accepted + rejected == gamma is enforced by draft_round)
        self.rounds = 0
        self.drafted = 0
        self.accepted = 0
        self.rejected = 0
        self.bonus = 0
        self.rollbacks = 0
        self.rollback_tokens = 0
        self.kv_rejections = 0
        self.kv_preemptions = 0
        self.audit_findings = 0

    # -- lifecycle -----------------------------------------------------

    def setup(self) -> None:
        spec = self.spec
        pool = BlockPool(
            spec.kv_blocks,
            KvSpec.for_model(self.runtime.engine.model, spec.block_tokens),
        )
        self.kv = KvCacheManager(pool, prefix_sharing=True)

    def begin_request(self, head: Request, start_ns: float) -> Optional[str]:
        try:
            admission = require_placed(self.kv, "kv pool").begin(
                head.req_id, head.req_id, head.prefill_tokens, start_ns
            )
        except KvPoolExhausted:
            self.kv_rejections += 1
            return "kv-pool-exhausted (speculative admission)"
        self._pending_prefill[head.req_id] = admission.recompute_tokens
        return None

    def abandon(self, head: Request, now_ns: float) -> None:
        # a preempt-then-readmit failure may already have dropped the seq
        kv = require_placed(self.kv, "kv pool")
        self._pending_prefill.pop(head.req_id, None)
        if kv.contains(head.req_id):
            kv.release(head.req_id, now_ns, retain=False)

    def finish(self, head: Request, now_ns: float) -> None:
        require_placed(self.kv, "kv pool").release(
            head.req_id, now_ns, retain=False
        )

    def teardown(self, end_ns: float) -> None:
        self.audit_findings = len(require_placed(self.kv, "kv pool").audit())

    # -- decode --------------------------------------------------------

    def decode(
        self,
        head: Request,
        route: Route,
        prefill_end_ns: float,
        decode_tokens: int,
        rng: random.Random,
    ) -> DecodeResult:
        core = self.core
        kv = require_placed(self.kv, "kv pool")
        spec = self.spec
        free = self.free
        seq = head.req_id
        ctx = head.prefill_tokens
        policy = policy_record(route.policy)
        # draft steps follow the policy's decode placement (a soc-only
        # policy must not smuggle the draft model onto PIM)
        draft_on_pim = route.pim_decode
        draft_res = "pim" if draft_on_pim else "soc"
        draft_step = (
            self.draft_engine.pim_decode_step_ns
            if draft_on_pim
            else self.draft_engine.soc_decode_step_ns
        )
        # prefill produced the first token; rounds produce the rest
        need = decode_tokens - 1
        produced = 0
        t = prefill_end_ns
        retries = 0
        backoff = 0.0
        last_resource = draft_res
        # consecutive preempt-and-recompute attempts with no produced
        # token: the serial loop has no other sequence to finish and
        # free blocks, so a bounded number of stalls means the pool
        # simply cannot hold this sequence plus a fork — shed, do not
        # hang (same rule as the paged-KV scheduler)
        stalls = 0

        def fail(end: float) -> DecodeResult:
            return DecodeResult(
                end_ns=end, ok=False, retries=retries, backoff_ns=backoff,
                resource=last_resource,
            )

        def phase(work_ns: float, resource: str, component: str) -> bool:
            """One retry-priced phase once *resource* is free after t."""
            nonlocal t, retries, backoff, last_resource
            t, ok, r, b = core.run_phase(
                max(t, free[resource]), work_ns, component, rng
            )
            free[resource] = t
            retries += r
            backoff += b
            last_resource = resource
            return ok

        # the prefill phase just computed the admission's recompute
        # tokens; record them (mirrors the paged-KV scheduler) so forks
        # share only committed state
        pending = self._pending_prefill.pop(seq, 0)
        if pending:
            kv.commit(seq, pending, t)

        while need > 0:
            gamma = spec.gamma
            context = ctx + produced
            # -- draft phase: gamma draft-model GEMV steps -------------
            draft_ns = sum(
                draft_step(context + i) for i in range(gamma)
            )
            if not phase(draft_ns, draft_res, draft_res):
                return fail(t)

            # -- speculate: gamma KV entries on a CoW fork -------------
            child = self._next_child
            self._next_child -= 1
            kv.fork(seq, child, now_ns=t)
            try:
                kv.ensure_capacity(child, gamma, t)
                kv.commit(child, gamma, t)
            except KvPoolExhausted:
                # roll the speculation back, preempt-and-recompute the
                # sequence against the prefix cache, and retry the round
                kv.release(child, t, retain=False)
                kv.preempt(seq, t)
                self.kv_preemptions += 1
                stalls += 1
                if stalls > 2:
                    self.kv_rejections += 1
                    return fail(t)
                try:
                    admission = kv.begin(seq, seq, context, t)
                except KvPoolExhausted:
                    self.kv_rejections += 1
                    return fail(t)
                recompute = max(1, admission.recompute_tokens)
                redo = core.engine.price_prefill(
                    route.policy, recompute, allow_pim=route.pim_allowed
                )
                if not phase(
                    redo.total_ns, redo.resource,
                    policy.component(redo.resource),
                ):
                    return fail(t)
                if admission.recompute_tokens:
                    kv.commit(seq, admission.recompute_tokens, t)
                continue

            # -- acceptance draw (seeded, fixed draw count) ------------
            accepted, rejected = draft_round(rng, gamma, spec.acceptance_rate)
            self.rounds += 1
            self.drafted += gamma
            self.accepted += accepted
            self.rejected += rejected
            if accepted == gamma:
                self.bonus += 1

            # -- verify phase: one target-model GEMM over the batch ----
            verify = core.engine.price_prefill(
                route.policy, gamma, allow_pim=route.pim_allowed
            )
            if not phase(
                verify.total_ns, verify.resource,
                policy.component(verify.resource),
            ):
                kv.release(child, t, retain=False)
                return fail(t)

            # -- settle: roll the fork back, keep only produced tokens -
            kv.release(child, t, retain=False)
            self.rollbacks += 1
            self.rollback_tokens += rejected
            step = min(accepted + 1, need)
            try:
                kv.ensure_capacity(seq, step, t)
                kv.commit(seq, step, t)
            except KvPoolExhausted:
                kv.preempt(seq, t)
                self.kv_preemptions += 1
                self.kv_rejections += 1
                return fail(t)
            produced += step
            need -= step
            stalls = 0

        return DecodeResult(
            end_ns=t,
            ok=True,
            retries=retries,
            backoff_ns=backoff,
            tokens_served=decode_tokens,
            resource=last_resource,
        )

    # -- reporting -----------------------------------------------------

    def decode_span_args(self, head: Request) -> Dict:
        return {"gamma": self.spec.gamma}

    def sections(self) -> Dict[str, Optional[Dict]]:
        kv = require_placed(self.kv, "kv pool")
        drafted = self.drafted
        section = {
            "name": self.name,
            "draft_model": self.spec.draft_model,
            "gamma": self.spec.gamma,
            "acceptance_rate": self.spec.acceptance_rate,
            "rounds": self.rounds,
            "drafted_tokens": drafted,
            "accepted_tokens": self.accepted,
            "rejected_tokens": self.rejected,
            "bonus_rounds": self.bonus,
            "mean_acceptance": self.accepted / drafted if drafted else 0.0,
            "rollbacks": self.rollbacks,
            "rollback_tokens": self.rollback_tokens,
            "kv_rejections": self.kv_rejections,
            "kv_preemptions": self.kv_preemptions,
            "kv_forks": kv.forks,
            "kv_cow_copies": kv.cow_copies,
            "audit_findings": self.audit_findings,
            # the invariant the property tests and the bench gate assert
            "conservation_findings": (
                0 if self.accepted + self.rejected == drafted else 1
            ) + self.audit_findings,
        }
        return {"workload": section}
