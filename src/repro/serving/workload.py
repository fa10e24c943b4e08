"""Multi-tenant request streams for the serving runtime.

A workload is a time-ordered list of :class:`Request`: each belongs to a
tenant (an app sharing the device NPU/PIM — assistant chat, keyboard
autocompletion, ...), carries its token counts sampled from the tenant's
dataset model, and a per-request **deadline budget** on TTFT.

Arrivals are Poisson per tenant (exponential inter-arrival times),
optionally modulated by an :class:`ArrivalShape` (the fleet's diurnal
and bursty traffic, see repro.fleet.workloads).  All
randomness — arrival jitter and length sampling — flows through **one**
``random.Random(seed)``, the same discipline as
:class:`~repro.reliability.faults.FaultInjector`: one seed reproduces a
whole serving run, byte for byte.

Tenants with ``mean_turns > 1`` emit **multi-turn conversations**: each
arrival seeds a conversation whose follow-up turns (geometric count,
exponential think-time gaps) accumulate context — turn *k* prefills the
whole history plus the new user tokens, which is exactly the traffic
the paged KV cache's prefix sharing is for (see repro.kvcache).  The
default ``mean_turns = 1.0`` takes none of the extra draws, so existing
seeded workloads reproduce byte-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence

from repro.engine.policies import policy_record
from repro.llm.datasets import ALPACA_LIKE, DatasetSpec, QueryTrace

__all__ = [
    "ArrivalShape", "Request", "TenantSpec", "poisson_workload", "trace_workload",
]


class ArrivalShape(Protocol):
    """Time-varying arrival-rate modulation, normalized to peak 1.0."""

    def rate_multiplier(self, t_ns: float) -> float:
        """Fraction of the tenant's peak rate arriving around *t_ns*
        (must stay within [0, 1] — the thinning bound)."""
        ...

#: hard cap on the geometric turn count, so a pathological stream cannot
#: emit an unbounded conversation
MAX_TURNS = 32


@dataclass(frozen=True)
class TenantSpec:
    """One request source sharing the serving stack."""

    name: str
    dataset: DatasetSpec = ALPACA_LIKE
    policy: str = "facil"
    qps: float = 50.0  # mean arrival rate (requests per second)
    deadline_ms: float = 250.0  # TTFT budget per request
    #: mean turns per conversation (geometric); 1.0 = single-query
    #: tenant, which draws nothing extra from the stream
    mean_turns: float = 1.0
    #: mean think time between a response and the next user turn
    think_time_ms: float = 2000.0

    def __post_init__(self) -> None:
        policy_record(self.policy)
        if self.qps <= 0:
            raise ValueError("qps must be positive")
        if self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if self.mean_turns < 1.0:
            raise ValueError("mean_turns must be >= 1")
        if self.think_time_ms <= 0:
            raise ValueError("think_time_ms must be positive")


@dataclass(frozen=True)
class Request:
    """One request as seen by the admission queue."""

    req_id: int
    tenant: str
    policy: str
    arrival_ns: float
    prefill_tokens: int
    decode_tokens: int
    deadline_ns: float  # TTFT budget, relative to arrival
    #: conversation identity (dense per workload) for multi-turn tenants;
    #: None for single-query requests.  The KV scheduler keys prefix
    #: sharing on this.
    conversation_id: Optional[int] = None
    #: which turn of the conversation this is (0 = opening turn)
    turn_index: int = 0
    #: tokens of conversation history included in ``prefill_tokens``
    context_tokens: int = 0

    @property
    def deadline_abs_ns(self) -> float:
        return self.arrival_ns + self.deadline_ns


def poisson_workload(
    tenants: Sequence[TenantSpec],
    duration_ms: float,
    seed: int = 0,
    rng: Optional[random.Random] = None,
    shape: Optional[ArrivalShape] = None,
) -> List[Request]:
    """Sample a merged multi-tenant Poisson arrival stream.

    Tenants are drawn in the given order from a single stream, so the
    result is fully determined by (*tenants*, *duration_ms*, *seed*).
    Conversations whose opening turn arrives inside the horizon keep
    their follow-up turns even past it (truncating mid-conversation
    would bias the turn-count distribution toward the horizon edge).

    A tenant dataset exposing ``sample_at(rng, t_ns)`` (e.g.
    :class:`~repro.llm.datasets.DriftingDatasetSpec`) is sampled at each
    request's arrival time, so non-stationary workloads drift along the
    trace; plain :class:`~repro.llm.datasets.DatasetSpec` tenants are
    unaffected.

    A *shape* makes session openings an **inhomogeneous** process,
    sampled by thinning [Lewis & Shedler 1979]: candidates arrive at the
    tenant's ``qps`` (the peak) and each is kept with probability
    ``shape.rate_multiplier(t)``.  Follow-up turns are not thinned — the
    user already engaged.  The thinning uniform is drawn only when a
    shape is given, so unshaped streams are unchanged by it.
    """
    if not tenants:
        raise ValueError("need at least one tenant")
    if duration_ms <= 0:
        raise ValueError("duration_ms must be positive")
    stream = rng if rng is not None else random.Random(seed)
    horizon_ns = duration_ms * 1e6
    requests: List[Request] = []
    conversation_id = 0
    for tenant in tenants:
        rate_per_ns = tenant.qps / 1e9
        multi_turn = tenant.mean_turns > 1.0
        # geometric continuation probability with the given mean
        p_more = 1.0 - 1.0 / tenant.mean_turns if multi_turn else 0.0
        think_rate_per_ns = 1.0 / (tenant.think_time_ms * 1e6)
        sample_at = getattr(tenant.dataset, "sample_at", None)

        def draw(at_ns: float) -> QueryTrace:
            if sample_at is not None:
                return sample_at(stream, at_ns)
            return tenant.dataset.sample_one(stream)

        t = stream.expovariate(rate_per_ns)
        while t < horizon_ns:
            if shape is not None:
                keep = shape.rate_multiplier(t)
                if not 0.0 <= keep <= 1.0:
                    raise ValueError(
                        f"shape multiplier {keep} at t={t:.0f} ns outside [0, 1]"
                    )
                if stream.random() >= keep:  # thinned away
                    t += stream.expovariate(rate_per_ns)
                    continue
            trace = draw(t)
            if not multi_turn:
                requests.append(
                    Request(
                        req_id=-1,  # assigned after the merge sort below
                        tenant=tenant.name,
                        policy=tenant.policy,
                        arrival_ns=t,
                        prefill_tokens=trace.prefill_tokens,
                        decode_tokens=trace.decode_tokens,
                        deadline_ns=tenant.deadline_ms * 1e6,
                    )
                )
            else:
                conv = conversation_id
                conversation_id += 1
                turn_t = t
                context = 0
                turn = 0
                while True:
                    requests.append(
                        Request(
                            req_id=-1,
                            tenant=tenant.name,
                            policy=tenant.policy,
                            arrival_ns=turn_t,
                            prefill_tokens=context + trace.prefill_tokens,
                            decode_tokens=trace.decode_tokens,
                            deadline_ns=tenant.deadline_ms * 1e6,
                            conversation_id=conv,
                            turn_index=turn,
                            context_tokens=context,
                        )
                    )
                    context += trace.prefill_tokens + trace.decode_tokens
                    turn += 1
                    if turn >= MAX_TURNS or stream.random() >= p_more:
                        break
                    # think time to the next user turn, then a fresh draw
                    turn_t += stream.expovariate(think_rate_per_ns)
                    trace = draw(turn_t)
            t += stream.expovariate(rate_per_ns)
    requests.sort(key=lambda r: (r.arrival_ns, r.tenant))
    return [
        Request(
            req_id=i,
            tenant=r.tenant,
            policy=r.policy,
            arrival_ns=r.arrival_ns,
            prefill_tokens=r.prefill_tokens,
            decode_tokens=r.decode_tokens,
            deadline_ns=r.deadline_ns,
            conversation_id=r.conversation_id,
            turn_index=r.turn_index,
            context_tokens=r.context_tokens,
        )
        for i, r in enumerate(requests)
    ]


def trace_workload(
    traces: Sequence[QueryTrace],
    tenant: TenantSpec,
    qps: Optional[float] = None,
) -> List[Request]:
    """Replay a fixed length trace at uniform spacing (no randomness) —
    for experiments that want the queueing behaviour isolated from
    arrival jitter."""
    if not traces:
        raise ValueError("need at least one trace")
    rate = qps if qps is not None else tenant.qps
    if rate <= 0:
        raise ValueError("qps must be positive")
    gap_ns = 1e9 / rate
    return [
        Request(
            req_id=i,
            tenant=tenant.name,
            policy=tenant.policy,
            arrival_ns=i * gap_ns,
            prefill_tokens=trace.prefill_tokens,
            decode_tokens=trace.decode_tokens,
            deadline_ns=tenant.deadline_ms * 1e6,
        )
        for i, trace in enumerate(traces)
    ]
