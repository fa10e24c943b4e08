"""One device's serving policy: breakers, brown-out, routing, retries.

FACIL's serving policy sends prefill to the SoC and decode to PIM.
While the mapping breaker is open it falls back to the policy record's
``mapping_fallback`` (``facil`` to ``hybrid-static``); while the PIM
breaker is open or the PIM backlog browns out, PIM work moves to the
SoC.  :class:`DeviceCore` is the one place that policy is written.  It
owns:

* the :class:`~repro.reliability.degrade.HealthMonitor`, the ``pim``
  and ``mapping`` :class:`~repro.serving.breaker.CircuitBreaker` s and
  the :class:`~repro.serving.breaker.BrownoutController`;
* routing (:meth:`DeviceCore.route`), which decides whether a
  request's prefill may use PIM and leaves placing and pricing it to
  :meth:`~repro.engine.policies.InferenceEngine.price_prefill`;
* retry-priced phases (:meth:`DeviceCore.run_phase`);
* whole-request decode with brown-out placement
  (:meth:`DeviceCore.decode`);
* the breaker, brown-out and health fields of a run report
  (:meth:`DeviceCore.report_fields`).

A :class:`~repro.serving.runtime.ServingRuntime` (and through it the
whole-request, workload and paged-KV loops) and every
:class:`~repro.fleet.device.FleetDevice` each own one core, built from
one :class:`DeviceSettings` (a ``ServingConfig`` is one, a ``DeviceSpec`` holds one).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.policies import InferenceEngine, decode_on_pim, policy_record
from repro.reliability.degrade import RETRY_BASE_BACKOFF_NS, HealthMonitor
from repro.serving.breaker import BrownoutController, CircuitBreaker
from repro.serving.workload import Request

__all__ = ["DecodeResult", "DeviceCore", "DeviceSettings", "Route"]


@dataclass(frozen=True)
class DeviceSettings:
    """The settings one device's core, admission queue and KV pool read,
    declared once for a single-device run and a fleet device alike."""

    queue_capacity: int = 8
    shed_policy: str = "reject"
    degrade_watermark: Optional[int] = None
    #: decode budget for degraded admissions (tokens)
    degraded_decode_tokens: int = 8
    max_retries: int = 3
    base_backoff_ns: float = RETRY_BASE_BACKOFF_NS
    #: backoff jitter amplitude in [0, 1): each wait is scaled by
    #: ``1 + jitter * uniform(-1, 1)`` from the run's seeded stream
    jitter: float = 0.0
    #: transient fault probability per phase attempt, by component
    pim_fault_rate: float = 0.0
    mapping_fault_rate: float = 0.0
    soc_fault_rate: float = 0.0
    #: circuit breaker tuning (see repro.serving.breaker)
    breaker_threshold: float = 0.5
    breaker_min_observations: int = 4
    #: brown-out watermarks on the PIM backlog (ns of queued work; decode
    #: phases run seconds, so saturation means several queued)
    brownout_high_ns: float = 5e9
    brownout_low_ns: float = 1e9
    #: paged KV cache: a positive ``kv_blocks`` serves a single device by
    #: continuous batching over a bounded block pool (repro.kvcache), 0 by
    #: whole requests; a fleet device keeps prefix residency in this pool
    kv_blocks: int = 0
    block_tokens: int = 16
    prefix_sharing: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        for rate in (self.pim_fault_rate, self.mapping_fault_rate, self.soc_fault_rate):
            if not 0.0 <= rate < 1.0:
                raise ValueError("fault rates must be in [0, 1)")
        if self.degraded_decode_tokens <= 0:
            raise ValueError("degraded_decode_tokens must be positive")
        if self.kv_blocks < 0:
            raise ValueError("kv_blocks must be >= 0")
        if self.block_tokens <= 0:
            raise ValueError("block_tokens must be positive")


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one request's decode: the decode advanced the resource
    timelines itself; this carries what the loop's outcome record needs."""

    end_ns: float
    ok: bool
    retries: int = 0
    backoff_ns: float = 0.0
    tokens_served: int = 0
    resource: str = "pim"
    fallbacks: Tuple[str, ...] = ()
    #: where the request's decode span starts (None: at prefill end)
    start_ns: Optional[float] = None
    #: un-penalized PIM work of the decode, for the adaptive controller
    pim_ns: float = 0.0


@dataclass(frozen=True)
class Route:
    """Resource plan for one request, fixed when it leaves the queue.

    Decode placement is settled later, at the prefill -> decode
    boundary, where both resource timelines are known (see
    :meth:`DeviceCore.decode`)."""

    policy: str
    prefill_ns: float
    prefill_resource: str
    prefill_component: str
    pim_allowed: bool  # breaker verdict for this request
    brownout_active: bool
    fallbacks: Tuple[str, ...]

    @property
    def pim_decode(self) -> bool:
        """Whether decode may run on PIM: the policy decodes there and
        the pim breaker lets this request through."""
        return decode_on_pim(self.policy) and self.pim_allowed


class DeviceCore:
    """Breakers, brown-out, health, routing and retry pricing for one
    device (see the module docstring)."""

    def __init__(
        self,
        engine: InferenceEngine,
        settings: DeviceSettings,
        monitor: Optional[HealthMonitor] = None,
    ) -> None:
        self.engine = engine
        self.max_retries = settings.max_retries
        self.base_backoff_ns = settings.base_backoff_ns
        self.jitter = settings.jitter
        self.fault_rates = {
            "pim": settings.pim_fault_rate,
            "mapping": settings.mapping_fault_rate,
            "soc": settings.soc_fault_rate,
        }
        self.monitor = monitor if monitor is not None else HealthMonitor()
        breaker_args: Dict[str, Any] = dict(
            monitor=self.monitor,
            fault_rate_threshold=settings.breaker_threshold,
            min_observations=settings.breaker_min_observations,
        )
        self.pim_breaker = CircuitBreaker("pim", **breaker_args)
        self.mapping_breaker = CircuitBreaker("mapping", **breaker_args)
        self.breakers = {"pim": self.pim_breaker, "mapping": self.mapping_breaker}
        self.brownout = BrownoutController(
            settings.brownout_high_ns, settings.brownout_low_ns
        )

    # -- routing ---------------------------------------------------------------

    def route(
        self,
        request: Request,
        now_ns: float,
        pim_backlog_ns: float,
        prefill_tokens: Optional[int] = None,
        engine: Optional[InferenceEngine] = None,
    ) -> Route:
        """Plan one request's resources.  *prefill_tokens* overrides the
        request's own count — prefix-cache hits price only the tokens
        they did not cover.  *engine* overrides the pricing engine — the
        co-residency workload routes each tenant through its own model."""
        policy = policy_record(request.policy)
        priced_tokens = (
            prefill_tokens if prefill_tokens is not None else request.prefill_tokens
        )
        fallbacks: List[str] = []
        fallback = policy.mapping_fallback
        if fallback is not None and not self.mapping_breaker.allow(now_ns):
            fallbacks.append(f"{policy.name}->{fallback} (mapping breaker open)")
            policy = policy_record(fallback)

        pim_allowed = True
        brownout_active = False
        if policy.decode_on_pim:
            pim_allowed = self.pim_breaker.allow(now_ns)
            if not pim_allowed:
                fallbacks.append("pim->soc (pim breaker open)")
            brownout_active = self.brownout.observe(pim_backlog_ns, now_ns)

        # prefill goes to PIM only when it is both healthy and not
        # saturated; decode placement is settled at the phase boundary
        pricing = engine if engine is not None else self.engine
        prefill = pricing.price_prefill(
            policy.name, priced_tokens, allow_pim=pim_allowed and not brownout_active
        )
        return Route(
            policy=policy.name,
            prefill_ns=prefill.total_ns,
            prefill_resource=prefill.resource,
            prefill_component=policy.component(prefill.resource),
            pim_allowed=pim_allowed,
            brownout_active=brownout_active,
            fallbacks=tuple(fallbacks),
        )

    # -- phase execution -------------------------------------------------------

    def run_phase(
        self, start_ns: float, work_ns: float, component: str, rng: random.Random
    ) -> Tuple[float, bool, int, float]:
        """Execute one phase with retry-on-transient-fault pricing.

        Returns ``(end_ns, ok, retries, backoff_ns)``.  A faulted attempt
        burns the full phase on the resource, then waits the jittered
        exponential backoff before retrying; every attempt feeds the
        component's breaker (or the health monitor for ``soc``).
        """
        rate = self.fault_rates[component]
        breaker = self.breakers.get(component)
        t = start_ns
        retries = 0
        backoff_total = 0.0
        while True:
            t += work_ns
            if rate <= 0.0 or rng.random() >= rate:
                if breaker is not None:
                    breaker.record_success(t)
                else:
                    self.monitor.record_success(component)
                return t, True, retries, backoff_total
            if breaker is not None:
                breaker.record_failure(t)
            else:
                self.monitor.record_fault(component)
            if retries >= self.max_retries:
                return t, False, retries, backoff_total
            wait = self.base_backoff_ns * (2**retries)
            if self.jitter:
                wait *= 1.0 + self.jitter * rng.uniform(-1.0, 1.0)
            backoff_total += wait
            t += wait
            retries += 1

    def decode_phase(
        self,
        ready_ns: float,
        work_ns: float,
        resource: str,
        decode_tokens: int,
        free: Dict[str, float],
        rng: random.Random,
        **fields: Any,
    ) -> DecodeResult:
        """Run a whole decode as one retry-priced phase on *resource*
        once it is free after *ready_ns*, advancing *free*; *fields*
        extend the result."""
        start = max(ready_ns, free[resource])
        end, ok, retries, backoff = self.run_phase(start, work_ns, resource, rng)
        free[resource] = end
        return DecodeResult(
            end_ns=end,
            ok=ok,
            retries=retries,
            backoff_ns=backoff,
            tokens_served=decode_tokens if ok else 0,
            resource=resource,
            **fields,
        )

    def decode(
        self,
        route: Route,
        context_tokens: int,
        decode_tokens: int,
        ready_ns: float,
        free: Dict[str, float],
        rng: random.Random,
        pim_mult: float = 1.0,
    ) -> DecodeResult:
        """Whole-request decode, placed at the prefill -> decode boundary.

        Decode runs on the policy's resource unless the pim breaker
        forbids PIM.  Under brown-out it migrates to the SoC only when
        that finishes *sooner*: a blind migration would park a monster
        decode on the SoC and starve every following prefill.
        *pim_mult* scales PIM work (the adaptive controller's MapID
        mismatch penalty).
        """
        engine = self.engine
        on_pim = route.pim_decode
        fallbacks: Tuple[str, ...] = ()
        if on_pim and route.brownout_active:
            pim_ns = engine.decode_total_ns(context_tokens, decode_tokens, True) * pim_mult
            soc_ns = engine.decode_total_ns(context_tokens, decode_tokens, False)
            pim_done = max(ready_ns, free["pim"]) + pim_ns
            soc_done = max(ready_ns, free["soc"]) + soc_ns
            if soc_done < pim_done:
                on_pim = False
                fallbacks = ("pim->soc (brown-out)",)
        base_ns = engine.decode_total_ns(context_tokens, decode_tokens, on_pim)
        resource = "pim" if on_pim else "soc"
        start = max(ready_ns, free[resource])
        return self.decode_phase(
            start, base_ns * pim_mult if on_pim else base_ns, resource,
            decode_tokens, free, rng,
            fallbacks=fallbacks, start_ns=start, pim_ns=base_ns if on_pim else 0.0,
        )

    # -- reporting -------------------------------------------------------------

    def report_fields(self) -> Dict[str, Any]:
        """The breaker, brown-out and health fields of a
        :class:`~repro.serving.runtime.ServingReport` (per-breaker
        snapshots are the auditable view fleet routing rests on)."""
        return {
            "breaker_transitions": {
                name: [(t, a.value, b.value) for t, a, b in brk.transitions]
                for name, brk in self.breakers.items()
            },
            "breaker_snapshots": {
                name: brk.snapshot() for name, brk in self.breakers.items()
            },
            "brownout_intervals": list(self.brownout.intervals),
            "health": self.monitor.summary(),
        }
