"""One fleet member: an isolated failure domain with a health machine.

A :class:`FleetDevice` bundles everything one device owns — inference
engine, admission queue, circuit breakers, brown-out controller, health
monitor, a journaled KV block pool with its own fault injector, and two
resource timelines (SoC / PIM) — so that losing the device loses exactly
this state and nothing else.  All per-device randomness (phase faults)
flows through one ``random.Random`` derived from ``(fleet seed,
device_id)``, so a fleet run reproduces byte-identically whatever the
device count.

The **health state machine** rides the reliability subsystem's sliding
fault-rate windows (:class:`~repro.reliability.degrade.HealthMonitor`):

    ACTIVE --rate >= degrade--> DEGRADED --rate >= quarantine--> QUARANTINED
       ^          |                                                  |
       +----------+ (window clears)            revive (recovery_ms) -+

plus two administrative states: DRAINING (autoscaler: finish queued
work, accept nothing new) and STANDBY (powered down — the autoscaler's
spare pool).
QUARANTINED is also entered by an injected **kill**: the device's
fault injector arms a KV-journal crash site, the in-flight pool
operation dies mid-transaction, :func:`~repro.kvcache.pool.recover_pool`
replays the journal, and the recovered pool is audited with the same
refcount-reconciliation oracle the chaos campaigns use — device loss is
crash-equivalent by construction, not by analogy.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.journal import InjectedCrash, MapJournal
from repro.engine.policies import InferenceEngine
from repro.kvcache.block import BlockRef
from repro.kvcache.pool import KV_CRASH_SITES, BlockPool, KvSpec, recover_pool
from repro.platforms.specs import PlatformSpec
from repro.reliability.degrade import HealthMonitor
from repro.reliability.faults import FaultInjector
from repro.serving.device import DeviceCore, DeviceSettings
from repro.serving.runtime import RequestOutcome
from repro.serving.workload import Request
from repro.workloads.runtime import WorkloadLoop

__all__ = [
    "DEVICE_STATES",
    "FLEET_DEVICE_SETTINGS",
    "BacklogTerms",
    "DeviceSpec",
    "DeviceState",
    "FleetDevice",
    "backlog_at",
]


class DeviceState(enum.Enum):
    ACTIVE = "active"
    DEGRADED = "degraded"
    QUARANTINED = "quarantined"
    DRAINING = "draining"
    STANDBY = "standby"


DEVICE_STATES = tuple(DeviceState)

#: states the router may place new work on
ROUTABLE_STATES = (DeviceState.ACTIVE, DeviceState.DEGRADED)

#: the most KV blocks one conversation keeps resident on a device
MAX_BLOCKS_PER_CONVERSATION = 16

#: (later timeline end, device clock, queued work) — the inputs of a
#: device's backlog that stay fixed between two fleet events
BacklogTerms = Tuple[float, float, float]


def backlog_at(terms: BacklogTerms, now_ns: float) -> float:
    """A device's backlog at *now_ns* from its :data:`BacklogTerms`:
    the resource-timeline overhang plus the queued work."""
    busy_until, clock, queued = terms
    return max(0.0, busy_until - max(now_ns, clock)) + queued


#: a fleet device's default settings: a single device's, with the KV
#: pool its prefix residency and kill journal live in
FLEET_DEVICE_SETTINGS = DeviceSettings(kv_blocks=64)


@dataclass(frozen=True)
class DeviceSpec:
    """Static identity and tuning of one fleet member."""

    device_id: int
    platform: PlatformSpec
    #: what the device's core, admission queue and KV pool read
    settings: DeviceSettings = FLEET_DEVICE_SETTINGS
    #: health machine: windowed fault-rate watermarks (any component)
    degrade_fault_rate: float = 0.25
    quarantine_fault_rate: float = 0.625
    health_min_observations: int = 8

    def __post_init__(self) -> None:
        if self.device_id < 0:
            raise ValueError("device_id must be >= 0")
        if not 0.0 < self.degrade_fault_rate <= self.quarantine_fault_rate <= 1.0:
            raise ValueError(
                "need 0 < degrade_fault_rate <= quarantine_fault_rate <= 1"
            )
        if self.health_min_observations <= 0:
            raise ValueError("health_min_observations must be positive")
        if self.settings.kv_blocks <= 0:
            raise ValueError("settings.kv_blocks must be positive (the prefix residency pool)")

    @property
    def name(self) -> str:
        return f"dev{self.device_id}/{self.platform.name}"


@dataclass
class _Residency:
    """A conversation's KV footprint on this device."""

    refs: List[BlockRef] = field(default_factory=list)
    tokens: int = 0
    last_use_ns: float = 0.0


@dataclass(frozen=True)
class Preempted:
    """Service interrupted by a device loss at *at_ns* (no outcome)."""

    request: Request
    at_ns: float


class FleetDevice(WorkloadLoop):
    """One simulated device inside a fleet (see the module docstring).

    A chat :class:`~repro.workloads.runtime.WorkloadLoop` the fleet
    runtime steps through :meth:`offer` and :meth:`serve_next`.  The
    device keeps the outcome of every request it settles, stamped with
    its id; the fleet runtime merges them at the end of the run.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        seed: int = 0,
        engine: Optional[InferenceEngine] = None,
    ) -> None:
        # CPython 3.11 keeps an instance's attributes inline only while
        # its class has at most 29; past that they all live in a dict,
        # and the router, autoscaler and backlog reads on every fleet
        # event get slower (about 4% of a fleet run).  Keep within 29.
        self.spec = spec
        #: per-device substream: derived from (fleet seed, device_id) so
        #: adding a device never perturbs the others' draws
        self.device_seed = seed * 1_000_003 + 7919 * (spec.device_id + 1)
        self.engine = engine if engine is not None else InferenceEngine(spec.platform)
        #: the health machine's input; the core records every phase in it
        self.monitor = HealthMonitor()
        # the loop: breakers, brown-out, routing and retry pricing on
        # the core; queue, timelines and clock; no adaptive controller
        self._init_loop(
            DeviceCore(self.engine, spec.settings, self.monitor), spec.settings,
            random.Random(self.device_seed),
        )
        #: the next scheduled loss while :meth:`serve_next` runs
        self.loss_ns = float("inf")
        #: journaled KV bookkeeping pool — the device's failure domain
        self.journal = MapJournal()
        self.injector = FaultInjector(self.device_seed + 1)
        self.journal.fault_hook = self.injector
        self.pool = BlockPool(
            spec.settings.kv_blocks,
            KvSpec(block_tokens=spec.settings.block_tokens, kv_dim=8),
            journal=self.journal,
        )
        self.resident: Dict[int, _Residency] = {}
        self.state = DeviceState.ACTIVE
        #: (virtual ns, from, to) — every health/admin transition
        self.transitions: List[Tuple[float, str, str]] = []
        # cumulative counters (survive kills and revives)
        self.kills = 0
        self.revives = 0
        #: KV crash site each kill fired on (campaign coverage evidence)
        self.kill_sites: List[str] = []
        self.audit_findings: List[str] = []
        self.prefix_hits = 0
        self.prefill_tokens_saved = 0
        self.kv_evicted_conversations = 0
        #: EWMA of observed service durations, seeded with a nominal
        #: SoC-path estimate so queued work on a never-served device is
        #: already visible to the router and autoscaler (backlog_ns)
        self._service_est_ns = self.engine.soc_prefill_ns(
            256
        ) + self.engine.decode_total_ns(256, 64, False)

    # -- state machine ---------------------------------------------------------

    def _move(self, new: DeviceState, now_ns: float) -> None:
        if new is not self.state:
            self.transitions.append((now_ns, self.state.value, new.value))
            self.state = new

    @property
    def routable(self) -> bool:
        return self.state in ROUTABLE_STATES

    @property
    def serving(self) -> bool:
        """May this device work through its queue? (DRAINING still serves.)"""
        return self.state in ROUTABLE_STATES or self.state is DeviceState.DRAINING

    def _windowed_fault_rate(self) -> float:
        """Worst per-component sliding-window fault rate with enough
        observations to mean anything — the health machine's input."""
        worst = 0.0
        for component in ("pim", "mapping", "soc"):
            if self.monitor.observations(component) >= self.spec.health_min_observations:
                worst = max(worst, self.monitor.fault_rate(component))
        return worst

    def update_health(self, now_ns: float) -> DeviceState:
        """Re-derive ACTIVE/DEGRADED/QUARANTINED from the fault windows.

        Administrative states (DRAINING, STANDBY) are never overridden;
        QUARANTINED is entered here only by sustained fault pressure —
        an injected kill goes through :meth:`kill` instead.
        """
        if self.state not in (
            DeviceState.ACTIVE,
            DeviceState.DEGRADED,
            DeviceState.QUARANTINED,
        ):
            return self.state
        rate = self._windowed_fault_rate()
        if self.state is not DeviceState.QUARANTINED:
            if rate >= self.spec.quarantine_fault_rate:
                self._move(DeviceState.QUARANTINED, now_ns)
            elif rate >= self.spec.degrade_fault_rate:
                self._move(DeviceState.DEGRADED, now_ns)
            elif self.state is DeviceState.DEGRADED:
                self._move(DeviceState.ACTIVE, now_ns)
        return self.state

    def drain(self, now_ns: float) -> None:
        """Stop accepting new work."""
        if self.state in (DeviceState.QUARANTINED, DeviceState.STANDBY):
            return
        self._move(DeviceState.DRAINING, now_ns)

    def finish_drain_if_idle(self, now_ns: float) -> bool:
        """DRAINING with an empty queue powers down to STANDBY."""
        if self.state is DeviceState.DRAINING and not len(self.queue):
            self._drop_all_residency(now_ns)
            self._move(DeviceState.STANDBY, now_ns)
            return True
        return False

    def activate(self, now_ns: float) -> None:
        """STANDBY/DRAINING back into rotation (autoscaler scale-up)."""
        if self.state in (DeviceState.STANDBY, DeviceState.DRAINING):
            self.free = {"soc": now_ns, "pim": now_ns}
            self.clock = max(self.clock, now_ns)
            self._move(DeviceState.ACTIVE, now_ns)

    # -- kill / revive ---------------------------------------------------------

    def kill(self, now_ns: float, kill_index: int = 0) -> int:
        """Abrupt device loss, crash-equivalent by construction.

        Arms this device's own fault injector at a KV-journal crash
        site (cycled by *kill_index*), drives a pool operation into the
        armed crash, recovers the journal, audits the recovered pool
        against the device's residency table, and drops all KV (the
        conversations will be recomputed elsewhere).  Returns the number
        of audit findings added (0 on a clean recovery).
        """
        before = len(self.audit_findings)
        site = KV_CRASH_SITES[kill_index % len(KV_CRASH_SITES)]
        op = site.split(":", 1)[0]
        label = f"{self.spec.name} kill {self.kills} site {site}"

        # stage the pool so the op is legal, then arm and crash
        holders = self._holder_refs()
        popped: Optional[BlockRef] = None
        if op == "kvalloc" and self.pool.free_blocks == 0 and holders:
            victim = holders[0]
            self._forget_ref(victim)
            self.pool.free(victim, now_ns)
            holders = self._holder_refs()
        if op == "kvfree":
            if holders:
                popped = holders[0]
                self._forget_ref(popped)
            else:
                popped = self.pool.alloc(now_ns).ref
        self.injector.schedule_crash(site)
        crashed = False
        try:
            if op == "kvalloc":
                if self.pool.free_blocks:
                    block = self.pool.alloc(now_ns)
                    # an alloc that survives the armed site cannot happen
                    self.pool.free(block.ref, now_ns)
            else:
                if popped is None:
                    raise RuntimeError("kvfree crash site armed with no live block")
                self.pool.free(popped, now_ns)
        except InjectedCrash:
            crashed = True
        self.injector._pending_crash = None  # disarm whatever did not fire
        if not crashed:
            self.audit_findings.append(f"{label}: armed crash never fired")

        recover_pool(self.pool)
        self._audit_pool(label)
        self._drop_all_residency(now_ns)
        if self.pool.used != 0:
            self.audit_findings.append(
                f"{label}: {self.pool.used} block(s) still live after loss"
            )
        self.journal.truncate_committed()

        self.kills += 1
        self.kill_sites.append(site)
        self._move(DeviceState.QUARANTINED, now_ns)
        return len(self.audit_findings) - before

    def revive(self, now_ns: float) -> bool:
        """QUARANTINED back to ACTIVE with cold state (maintenance)."""
        if self.state is not DeviceState.QUARANTINED:
            return False
        for component in ("pim", "mapping", "soc"):
            self.monitor.reset(component)
        self.free = {"soc": now_ns, "pim": now_ns}
        self.clock = max(self.clock, now_ns)
        self.revives += 1
        self._move(DeviceState.ACTIVE, now_ns)
        return True

    # -- KV residency ----------------------------------------------------------

    def _holder_refs(self) -> List[BlockRef]:
        refs: List[BlockRef] = []
        for conv_id in sorted(self.resident):
            refs.extend(self.resident[conv_id].refs)
        return refs

    def _forget_ref(self, ref: BlockRef) -> None:
        for conv_id in sorted(self.resident):
            res = self.resident[conv_id]
            if ref in res.refs:
                res.refs.remove(ref)
                return

    def _audit_pool(self, label: str) -> None:
        """The chaos campaigns' oracle: structural audit plus refcount
        reconciliation against this device's residency table."""
        violations = self.pool.audit()
        if violations:
            self.audit_findings.append(f"{label}: pool audit: {violations[0]}")
        expected = {ref.block_id: 1 for ref in self._holder_refs()}
        actual = self.pool.refcounts()
        if expected != actual:
            self.audit_findings.append(
                f"{label}: live refcounts {actual} != held {expected}"
            )

    def _drop_all_residency(self, now_ns: float) -> None:
        self.pool.free_run(self._holder_refs(), now_ns)
        self.resident.clear()

    def evict_conversation(self, conv_id: int, now_ns: float) -> bool:
        res = self.resident.pop(conv_id, None)
        if res is None:
            return False
        self.pool.free_run(res.refs, now_ns)
        self.kv_evicted_conversations += 1
        return True

    def resident_tokens(self, conv_id: Optional[int]) -> int:
        if conv_id is None:
            return 0
        res = self.resident.get(conv_id)
        return res.tokens if res is not None else 0

    def _grow_residency(self, request: Request, tokens_total: int, now_ns: float) -> None:
        """Grow the conversation's KV footprint to cover *tokens_total*
        (evicting idle conversations LRU-first when the pool is full)."""
        conv_id = request.conversation_id
        if conv_id is None or not self.spec.settings.prefix_sharing:
            return
        res = self.resident.get(conv_id)
        if res is None:
            res = _Residency()
            self.resident[conv_id] = res
        res.last_use_ns = now_ns
        want_blocks = min(
            -(-tokens_total // self.spec.settings.block_tokens),
            MAX_BLOCKS_PER_CONVERSATION,
        )
        # one block run per free stretch: evictions land where growing
        # a block at a time would hit an empty free list
        while len(res.refs) < want_blocks:
            if self.pool.free_blocks == 0 and not self._evict_lru(conv_id, now_ns):
                break  # pool full of this conversation's own blocks
            run = min(want_blocks - len(res.refs), self.pool.free_blocks)
            res.refs.extend([block.ref for block in self.pool.alloc_run(run, now_ns)])
        res.tokens = min(tokens_total, len(res.refs) * self.spec.settings.block_tokens)

    def _evict_lru(self, keep_conv_id: int, now_ns: float) -> bool:
        victim_id: Optional[int] = None
        victim_t = float("inf")
        for conv_id in sorted(self.resident):
            if conv_id == keep_conv_id:
                continue
            res = self.resident[conv_id]
            if res.refs and res.last_use_ns < victim_t:
                victim_t = res.last_use_ns
                victim_id = conv_id
        if victim_id is None:
            return False
        return self.evict_conversation(victim_id, now_ns)

    # -- load signals ----------------------------------------------------------

    def _observe_service(self, duration_ns: float) -> None:
        if duration_ns > 0.0:
            self._service_est_ns += 0.25 * (duration_ns - self._service_est_ns)

    def backlog_terms(self) -> BacklogTerms:
        """What :meth:`backlog_ns` reads of this device."""
        return (
            max(self.free["soc"], self.free["pim"]),
            self.clock,
            len(self.queue) * self._service_est_ns,
        )

    def backlog_ns(self, now_ns: float) -> float:
        """Queued-but-unexecuted work: resource-timeline overhang plus
        the waiting queue scaled by the bottleneck service estimate (an
        EWMA of this device's observed service durations)."""
        return backlog_at(self.backlog_terms(), now_ns)

    def est_start(self) -> float:
        head = self.queue.peek()
        if head is None:
            return float("inf")
        return max(head.arrival_ns, self.clock)

    # -- serving ---------------------------------------------------------------

    @property
    def served(self) -> int:
        return sum(1 for o in self.outcomes if o.served)

    def record(self, request: Request, status: str, **fields: Any) -> RequestOutcome:
        """Keep the outcome, stamped with this device's id."""
        return super().record(request, status, device_id=self.spec.device_id, **fields)

    def interrupted(self, t_ns: float) -> bool:
        """The device's next scheduled loss lands before *t_ns*."""
        return t_ns > self.loss_ns

    def serve_next(
        self, interrupt_ns: Optional[float] = None
    ) -> RequestOutcome | Preempted:
        """Pop the queue head and run it to completion on this device.

        Returns the recorded outcome, or a :class:`Preempted` when
        *interrupt_ns* (the device's next scheduled loss) lands inside
        the service window — the caller re-admits the request elsewhere
        via the router.
        """
        head = self.queue.peek()
        if head is None:
            raise RuntimeError("serve_next on an empty queue")
        est = max(head.arrival_ns, self.clock)

        # prefix-locality credit: tokens already resident here are not
        # re-prefilled (the KV scheduler's prefix sharing, fleet-grade)
        priced_tokens = head.prefill_tokens
        prefix_hit = False
        covered = min(head.context_tokens, self.resident_tokens(head.conversation_id))
        if covered > 0 and self.spec.settings.prefix_sharing:
            priced_tokens = max(1, head.prefill_tokens - covered)
            prefix_hit = True

        route = self.core.route(
            head, est, max(0.0, self.free["pim"] - est), prefill_tokens=priced_tokens
        )
        start = max(est, self.free[route.prefill_resource])
        self.loss_ns = interrupt_ns if interrupt_ns is not None else float("inf")
        if start >= self.loss_ns:
            self.queue.pop(self.loss_ns)
            self.degraded.pop(head.req_id, None)
            return Preempted(head, self.loss_ns)
        outcome = self.serve(head, route, est, start)
        if outcome is None:
            # the device dies mid-service: burned work, no outcome
            return Preempted(head, self.loss_ns)
        end = outcome.end_ns
        if outcome.served:
            if prefix_hit:
                self.prefix_hits += 1
                self.prefill_tokens_saved += head.prefill_tokens - priced_tokens
            self._grow_residency(
                head, head.prefill_tokens + outcome.decode_tokens_served, end
            )
        self._observe_service(end - start)
        return outcome

    # -- reporting -------------------------------------------------------------

    def summary(self) -> Dict:
        fields = self.core.report_fields()
        return {
            "device_id": self.spec.device_id,
            "platform": self.spec.platform.name,
            "state": self.state.value,
            "transitions": [(t, a, b) for t, a, b in self.transitions],
            "served": self.served,
            "kills": self.kills,
            "revives": self.revives,
            "audit_findings": len(self.audit_findings),
            "prefix_hits": self.prefix_hits,
            "prefill_tokens_saved": self.prefill_tokens_saved,
            "kv_evicted_conversations": self.kv_evicted_conversations,
            "kv_used_blocks": self.pool.used,
            "health": fields["health"],
            "breakers": dict(sorted(fields["breaker_snapshots"].items())),
            "queue": {
                "offered": self.queue.stats.offered,
                "admitted": self.queue.stats.admitted,
                "rejected": self.queue.stats.rejected,
                "dropped": self.queue.stats.dropped,
                "peak_occupancy": self.queue.stats.peak_occupancy,
            },
        }
