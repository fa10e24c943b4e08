"""Golden-report oracle: pinned digests of every serving loop's output.

Each case runs one serving configuration and hashes an artifact that
must come out byte-identical across refactors of the serving core:
``report.to_json()`` for chat (every shed policy x fault level x
adaptive mode), paged-KV multi-turn, the three workloads and the fleet;
the chat and paged-KV replay-barrier hash lists; and the chat and
paged-KV Chrome-trace JSON.

The digests were captured at commit
480cd18f32b784df93aa9136dc014752800cc6f0, before the chat loop was
folded into ``WorkloadLoop`` and the fleet's mirrored routing and retry
code was replaced by ``DeviceCore``.  A mismatch names the case; rerun
it by hand and diff the JSON against that commit to find the first
diverging field.  Print fresh digests with
``python -m tests.serving.test_golden_reports`` only when a change is
*meant* to move simulated results.  The paged-KV trace digests were
re-pinned once on purpose, when that loop's prefill and decode spans
started to name the unit that ran the phase (``soc`` / ``pim``) instead
of the policy, and its demand-reject span to carry ``reason`` before
the loop tag, as every loop's shed span does.

The ``fleet-autoscale-actions`` case, captured at commit
992d138c8f95a494ffc3c49a6abd27d94111dcaf, reaches every autoscaler
action: a drain, two scale-ups and ``hold-unhealthy``
(``test_golden_outcomes.test_fleet_case_reached`` checks the counts).

The ``KV_BRANCH_CASES`` pin the paged-KV loop's rarer branches, which
the multi-turn cases above never reach: SoC decode (served, clipped to
the pool, preempted when it cannot grow one token, aborted by a fault),
both deadline boundaries under drop-oldest and degrade shedding, and
the demand reject on a small pool.  Each has a report, barrier, trace
and metrics digest, captured at commit
ee90c2d2da6f7ec86c924626e3217606b88971b6, and
:func:`test_kv_branch_reached` checks from the run's counters,
outcomes and request spans that its branches really ran.  Two
branches of that loop cannot run, so no case pins them:

* the shed when ``KvCacheManager.begin`` fails with nothing in flight
  or running: with no sequence live, every block is free or evictable,
  and the demand pre-check plus the admission clip keep any one
  sequence within the pool;
* a prefill that completes with no decode budget left: every budget is
  at least one token, and a preempted sequence re-enters with its
  unserved tokens.

A third, a decode round with no preemption victim, was deleted: the
sequence that cannot grow is itself running, so it is always a
candidate.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, List, Set, Tuple

import pytest

from repro.adaptive import AdaptiveConfig
from repro.analysis.replay import BarrierRecorder
from repro.engine.policies import InferenceEngine
from repro.llm.datasets import CHAT_TO_LONG_CONTEXT_DRIFT
from repro.platforms.specs import IPHONE_15_PRO, JETSON_ORIN
from repro.serving.runtime import (
    ABORTED,
    SERVED_DEGRADED,
    TIMED_OUT,
    ServingConfig,
    ServingReport,
    ServingRuntime,
)
from repro.serving.workload import Request, TenantSpec, poisson_workload
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.runtime import FleetReport

SHED_POLICIES = ("reject", "degrade", "drop-oldest")
ADAPTIVE_MODES = ("off", "static", "active", "active-pinned")
#: the matrix's fault level: pim/mapping faults 0.1 with jitter 0.2
LIGHT_FAULTS = dict(pim_fault_rate=0.1, mapping_fault_rate=0.1, jitter=0.2)
#: trips both breakers and aborts in both phases (the light level
#: never exhausts three retries on a run this size)
HARSH_FAULTS = dict(
    pim_fault_rate=0.5, mapping_fault_rate=0.35, soc_fault_rate=0.1,
    jitter=0.2, max_retries=1, breaker_threshold=0.3,
)
#: harsh faults with SoC faults frequent enough that a SoC decode
#: exhausts its one retry
SOC_FAULTS = dict(HARSH_FAULTS, soc_fault_rate=0.4)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _iphone() -> InferenceEngine:
    return InferenceEngine(IPHONE_15_PRO)


def _chat_requests():
    """Two minutes of chat drifting to long context at ~1x load: the
    queue fills, brown-out migrates decode, and the adaptive modes see
    a MapID drift worth acting on."""
    dataset = replace(
        CHAT_TO_LONG_CONTEXT_DRIFT,
        drift_start_ms=30_000.0, drift_end_ms=60_000.0,
    )
    tenant = TenantSpec(
        name="chat", policy="facil", dataset=dataset, qps=0.5,
        deadline_ms=15_000.0,
    )
    return poisson_workload([tenant], duration_ms=120_000.0, seed=11)


def _chat_config(shed: str, faults: Dict, mode: str) -> ServingConfig:
    knobs: Dict = dict(
        seed=11, queue_capacity=4, shed_policy=shed,
        brownout_high_ns=2e9, brownout_low_ns=0.5e9, **faults,
    )
    if shed == "degrade":
        knobs["degrade_watermark"] = 2
    tuning: Dict = dict(window_requests=16, canary_window=8, cooldown_requests=16)
    if mode == "active-pinned":
        knobs["adaptive"] = AdaptiveConfig(
            mode="active", pinned_map_id=0, slo_margin=0.02, **tuning
        )
    elif mode != "off":
        knobs["adaptive"] = AdaptiveConfig(mode=mode, **tuning)
    return ServingConfig(**knobs)


def _chat_report(shed: str, faults: Dict, mode: str) -> str:
    config = _chat_config(shed, faults, mode)
    return ServingRuntime(_iphone(), config).run(_chat_requests()).to_json()


def _kv_requests():
    tenant = TenantSpec(
        name="chat", policy="facil", qps=1.0, deadline_ms=15_000.0,
        mean_turns=3.0,
    )
    return poisson_workload([tenant], duration_ms=60_000.0, seed=3)


def _kv_config(faults: Dict) -> ServingConfig:
    return ServingConfig(
        seed=3, queue_capacity=8, shed_policy="drop-oldest", kv_blocks=48,
        block_tokens=16, **faults,
    )


def _kv_report(faults: Dict) -> str:
    runtime = ServingRuntime(_iphone(), _kv_config(faults))
    return runtime.run(_kv_requests()).to_json()


def _workload_spec(name: str):
    from repro.workloads import (
        CoResidencySpec,
        ExpertPlacementSpec,
        SpeculativeSpec,
    )

    if name == "speculative":
        return SpeculativeSpec()
    if name == "moe":
        return ExpertPlacementSpec(expert_rows=1024, expert_cols=1024)
    return CoResidencySpec()


def _workload_run(name: str, faulted: bool) -> ServingReport:
    tenants = [TenantSpec(
        name="chat", policy="facil", qps=40.0, deadline_ms=120_000.0,
    )]
    if name == "coresident":
        tenants = [
            replace(tenants[0], qps=20.0),
            TenantSpec(
                name="secondary", policy="facil", qps=20.0,
                deadline_ms=120_000.0,
            ),
        ]
    knobs: Dict = dict(seed=7, queue_capacity=4, shed_policy="reject")
    if faulted:
        knobs.update(
            queue_capacity=8, shed_policy="degrade", degrade_watermark=4,
            pim_fault_rate=0.15, mapping_fault_rate=0.1, jitter=0.2,
            max_retries=1,
        )
        tenants = [replace(t, deadline_ms=3_000.0) for t in tenants]
    requests = poisson_workload(tenants, duration_ms=2_000.0, seed=7)
    runtime = ServingRuntime(
        InferenceEngine(JETSON_ORIN), ServingConfig(**knobs),
        workload=_workload_spec(name),
    )
    return runtime.run(requests)


def _fleet_run(kill_k: bool) -> FleetReport:
    from repro.fleet.runtime import FleetConfig, FleetRuntime
    from repro.fleet.workloads import DIURNAL, shaped_workload

    tenant = TenantSpec(
        name="chat", policy="facil", qps=40.0, deadline_ms=2_000.0,
        mean_turns=2.0,
    )
    requests = shaped_workload([tenant], 4_000.0, shape=DIURNAL, seed=0)
    if not kill_k:
        return FleetRuntime(FleetConfig(n_devices=4, seed=0)).run(requests)
    config = FleetConfig(
        n_devices=4, standby_devices=1, seed=0, autoscale=True,
        pim_fault_rate=0.2, mapping_fault_rate=0.1,
    )
    rng = random.Random(65537)
    kills, t = [], 100e6
    for index in range(8):
        t += 100e6 * (rng.random() - 0.5)
        kills.append((t, index % 3))
        t += 400e6
    return FleetRuntime(config).run(requests, kills=sorted(kills))


#: three of the four devices lost twice, 10 ms apart, outlasting the
#: autoscaler's patience: the health gate holds scale-up
AUTOSCALE_KILLS = [
    (t_s * 1e9, device_id)
    for t_s, device_id in (
        (1.0, 0), (1.01, 1), (1.02, 2), (2.6, 0), (2.61, 1), (2.62, 2),
    )
]


def _fleet_autoscale_run() -> FleetReport:
    """Every autoscaler action on one run: a drain that parks its device
    in STANDBY on the same tick, two scale-ups, and ``hold-unhealthy``
    while three of the four devices are quarantined."""
    from repro.fleet.runtime import FleetConfig, FleetRuntime
    from repro.fleet.workloads import DIURNAL, shaped_workload

    tenant = TenantSpec(
        name="chat", policy="facil", qps=40.0, deadline_ms=2_000.0,
        mean_turns=2.0,
    )
    requests = shaped_workload([tenant], 4_000.0, shape=DIURNAL, seed=0)
    config = FleetConfig(
        n_devices=4, standby_devices=1, seed=0, autoscale=True,
        recovery_ms=600.0,
    )
    return FleetRuntime(config).run(requests, kills=AUTOSCALE_KILLS)


def _barrier_hashes(runtime_for: Callable[[BarrierRecorder], ServingRuntime],
                    requests) -> str:
    recorder = BarrierRecorder(every=8)
    runtime_for(recorder).run(requests)
    return json.dumps([
        [b.label, b.position, [list(c) for c in b.components]]
        for b in recorder.barriers
    ])


def _chat_barriers() -> str:
    config = _chat_config("reject", LIGHT_FAULTS, "active")
    return _barrier_hashes(
        lambda rec: ServingRuntime(_iphone(), config, barriers=rec),
        _chat_requests(),
    )


def _kv_barriers() -> str:
    config = _kv_config(LIGHT_FAULTS)
    return _barrier_hashes(
        lambda rec: ServingRuntime(_iphone(), config, barriers=rec),
        _kv_requests(),
    )


def _kv_tenant(policy: str, qps: float, deadline_ms: float) -> TenantSpec:
    return TenantSpec(
        name=policy, policy=policy, qps=qps, deadline_ms=deadline_ms,
        mean_turns=3.0, think_time_ms=500.0,
    )


#: paged-KV runs that reach the loop's rarer branches (see the module
#: docstring): name -> (tenants, pool blocks, shed policy, faults, seed,
#: duration in ms)
KV_BRANCH_CASES: Dict[str, Tuple] = {
    # SoC decode alone: served, aborted by a SoC fault, and the demand
    # reject plus both deadline boundaries on a 12-block pool
    "kv-soc-only": (
        (_kv_tenant("soc-only", 1.0, 15_000.0),),
        12, "reject", SOC_FAULTS, 5, 30_000.0,
    ),
    # SoC decodes beside batched PIM rounds on a 6-block pool: clipped
    # to what the rounds leave, preempted when not one token fits, and
    # rounds preempting their youngest member
    "kv-hybrid-soc": (
        (_kv_tenant("hybrid-dynamic", 2.0, 15_000.0),
         _kv_tenant("soc-only", 1.0, 15_000.0)),
        6, "drop-oldest", SOC_FAULTS, 7, 20_000.0,
    ),
    # tight deadlines: requests time out before and after their prefill
    "kv-deadline-drop-oldest": (
        (_kv_tenant("facil", 1.0, 2_000.0), _kv_tenant("soc-only", 0.5, 2_000.0)),
        12, "drop-oldest", {}, 3, 20_000.0,
    ),
    "kv-deadline-degrade": (
        (_kv_tenant("hybrid-dynamic", 1.0, 2_000.0),
         _kv_tenant("soc-only", 0.5, 2_000.0)),
        12, "degrade", {}, 5, 20_000.0,
    ),
}

#: what each case must prove it ran (see :func:`_kv_branches_reached`)
KV_BRANCHES: Dict[str, Set[str]] = {
    "kv-soc-only": {
        "soc-decode-served", "soc-decode-aborted", "prefill-aborted",
        "demand-rejected", "timed-out-before-prefill",
        "timed-out-after-prefill",
    },
    "kv-hybrid-soc": {
        "soc-decode-served", "soc-decode-clipped", "soc-decode-preempted",
        "round-preempted", "soc-decode-aborted", "dropped",
    },
    "kv-deadline-drop-oldest": {
        "timed-out-before-prefill", "timed-out-after-prefill", "dropped",
    },
    "kv-deadline-degrade": {
        "timed-out-before-prefill", "timed-out-after-prefill",
        "served-degraded", "kv-degraded",
    },
}


def _kv_branch_inputs(name: str) -> Tuple[ServingConfig, List[Request]]:
    tenants, blocks, shed, faults, seed, duration_ms = KV_BRANCH_CASES[name]
    knobs: Dict = dict(
        seed=seed, queue_capacity=8, shed_policy=shed, kv_blocks=blocks,
        block_tokens=16, **faults,
    )
    if shed == "degrade":
        knobs["degrade_watermark"] = 2
    requests = poisson_workload(list(tenants), duration_ms=duration_ms, seed=seed)
    return ServingConfig(**knobs), requests


def _kv_branch_report(name: str) -> str:
    config, requests = _kv_branch_inputs(name)
    return ServingRuntime(_iphone(), config).run(requests).to_json()


def _kv_branch_barriers(name: str) -> str:
    config, requests = _kv_branch_inputs(name)
    return _barrier_hashes(
        lambda rec: ServingRuntime(_iphone(), config, barriers=rec), requests
    )


@functools.lru_cache(maxsize=None)
def _kv_branch_traced(name: str) -> Tuple[ServingReport, Telemetry]:
    config, requests = _kv_branch_inputs(name)
    telemetry = Telemetry(sample_every=1)
    report = ServingRuntime(_iphone(), config, telemetry=telemetry).run(requests)
    return report, telemetry


def _kv_branch_trace(name: str) -> str:
    _, telemetry = _kv_branch_traced(name)
    return json.dumps(telemetry.tracer.chrome_trace(), indent=1)


def _kv_branch_metrics(name: str) -> str:
    _, telemetry = _kv_branch_traced(name)
    return json.dumps(telemetry.metrics.snapshot(), indent=1)


def _kv_branches_reached(name: str) -> Set[str]:
    """The branches *name*'s traced run shows it ran.  A soc-only
    request never joins a PIM round, so its decode, its clip and its
    recompute all come from the SoC decode path."""
    config, requests = _kv_branch_inputs(name)
    report, telemetry = _kv_branch_traced(name)
    cap_tokens = config.kv_blocks * config.block_tokens
    by_id = {r.req_id: r for r in requests}
    recomputes = {
        span.trace_id: span.args.get("recomputes", 0)
        for span in telemetry.tracer.spans if span.name == "request"
    }
    reached: Set[str] = set()
    kv = report.kv
    assert kv is not None
    if kv["kv_rejections"]:
        reached.add("demand-rejected")
    if kv["kv_degraded"]:
        reached.add("kv-degraded")
    if report.dropped:
        reached.add("dropped")
    if report.served_degraded:
        reached.add("served-degraded")
    for outcome in report.outcomes:
        request = by_id[outcome.req_id]
        soc_only = request.policy == "soc-only"
        recomputed = recomputes.get(outcome.req_id, 0) > 0
        first_token = outcome.ttft_ns > 0.0
        if outcome.status == TIMED_OUT:
            reached.add(
                "timed-out-after-prefill" if first_token
                else "timed-out-before-prefill"
            )
        if outcome.status == ABORTED and not first_token:
            reached.add("prefill-aborted")
        if recomputed:
            reached.add("soc-decode-preempted" if soc_only else "round-preempted")
        if not soc_only:
            continue
        if outcome.status == ABORTED and first_token and not recomputed:
            reached.add("soc-decode-aborted")
        if outcome.served:
            reached.add("soc-decode-served")
            budget = request.decode_tokens
            if outcome.status == SERVED_DEGRADED:
                budget = max(1, min(budget, config.degraded_decode_tokens))
            if request.prefill_tokens + budget > cap_tokens:
                budget = max(1, cap_tokens - request.prefill_tokens)
            if outcome.decode_tokens_served < budget:
                reached.add("soc-decode-clipped")
    return reached


def _trace(config: ServingConfig, requests) -> str:
    telemetry = Telemetry(sample_every=1)
    ServingRuntime(_iphone(), config, telemetry=telemetry).run(requests)
    return json.dumps(telemetry.tracer.chrome_trace(), indent=1)


def _cases() -> Dict[str, Callable[[], str]]:
    cases: Dict[str, Callable[[], str]] = {}
    for shed in SHED_POLICIES:
        for level, faults in (("nofault", {}), ("faults", LIGHT_FAULTS)):
            for mode in ADAPTIVE_MODES:
                cases[f"chat-{shed}-{level}-{mode}"] = (
                    lambda s=shed, f=faults, m=mode: _chat_report(s, f, m)
                )
    for mode in ("off", "active"):
        cases[f"chat-reject-harsh-{mode}"] = (
            lambda m=mode: _chat_report("reject", HARSH_FAULTS, m)
        )
    cases["kv-multiturn-faults"] = lambda: _kv_report(LIGHT_FAULTS)
    cases["kv-multiturn-harsh"] = lambda: _kv_report(HARSH_FAULTS)
    for name in ("speculative", "moe", "coresident"):
        for faulted in (False, True):
            key = f"workload-{name}-{'faults' if faulted else 'shed'}"
            cases[key] = lambda n=name, f=faulted: _workload_run(n, f).to_json()
    cases["fleet-healthy"] = lambda: _fleet_run(False).to_json()
    cases["fleet-kill-k"] = lambda: _fleet_run(True).to_json()
    cases["fleet-autoscale-actions"] = lambda: _fleet_autoscale_run().to_json()
    cases["barriers-chat"] = _chat_barriers
    cases["barriers-kv"] = _kv_barriers
    cases["trace-chat"] = lambda: _trace(
        _chat_config("reject", HARSH_FAULTS, "active"), _chat_requests()
    )
    cases["trace-kv"] = lambda: _trace(
        _kv_config(HARSH_FAULTS), _kv_requests()
    )
    for name in KV_BRANCH_CASES:
        cases[f"{name}-report"] = lambda n=name: _kv_branch_report(n)
        cases[f"{name}-barriers"] = lambda n=name: _kv_branch_barriers(n)
        cases[f"{name}-trace"] = lambda n=name: _kv_branch_trace(n)
        cases[f"{name}-metrics"] = lambda n=name: _kv_branch_metrics(n)
    return cases


CASES = _cases()

GOLDEN: Dict[str, str] = {
    "barriers-chat": "f848fd940a4343405ddddb7c1e605b8920e4ff6c48046a80706a4b4d2eacb38d",
    "barriers-kv": "7ba8db65ac826035922f61270b25949111c1cc28ab1ba482a57c1cce5ae9c56c",
    "chat-degrade-faults-active": "059183b320fff2e14cd1713905c3939e614e099e729907dd9064cb5a504ba378",
    "chat-degrade-faults-active-pinned": "cc7c21020170ae0619c141c2ce90bcdcccac94ac420968462cc83e51b401966a",
    "chat-degrade-faults-off": "e0ff47f50dbcea82cd6597dc3f52216618ba3be1034442321b3f27000be976e4",
    "chat-degrade-faults-static": "775c307fff3828b9ae032032c671a757e0f870f58fda829ceeddba68e75ec51b",
    "chat-degrade-nofault-active": "3a1a10d68f9f7946ba21078860adfd6b3dde2e4939136b7f0567e516b3aabb55",
    "chat-degrade-nofault-active-pinned": "d80d1e4fdb128564cd808ad8c0f041e91c6eeceac735913e919eaf846294b81d",
    "chat-degrade-nofault-off": "20f4e69e415b2558e758ad29c891f87469635179ef9f15f48ccff31b1eb3292c",
    "chat-degrade-nofault-static": "5b7a73a825b1249011b6c95486796eedd5255b02c574f4549d1fd7ab68d22d00",
    "chat-drop-oldest-faults-active": "ce271ec3bb781911ea277569b0dfbc7f1a6831616359be7884bc9c3fa745c80d",
    "chat-drop-oldest-faults-active-pinned": "1aeb40fb18bb57ce56ed5b4dba6da28156836eed8285c976396eebfc6fb39e6d",
    "chat-drop-oldest-faults-off": "616612e692d0bc4cc35ddb8a8f02b30769a63e5b34e8b2abacf9465da540c885",
    "chat-drop-oldest-faults-static": "70ded42786c65d90a31d1605192b773fabb9c74654eddf410c187f7b8b891ba6",
    "chat-drop-oldest-nofault-active": "8d21dbd56ceb92391fa895fbd849c82fc979927669b076013fc068613a3e671b",
    "chat-drop-oldest-nofault-active-pinned": "031565cfcd488268373c4cc117b30f32a36338de0cdd08d01456b447edd016e6",
    "chat-drop-oldest-nofault-off": "c01275857166bc3cfb68111644f2a6c80836457be5383882dae7af701090aedb",
    "chat-drop-oldest-nofault-static": "c8b040faa5665f79423ba333e7feb66122a112f6acbd2dce7b87f602953c9ec8",
    "chat-reject-faults-active": "c3336ea212ed15d857a69897d7bd71dc3dab83612eecf07174ca9f15e9ee3667",
    "chat-reject-faults-active-pinned": "e98a94e691991852bfdf72281bc47c22f60a19a650dd2c468276955594266b8c",
    "chat-reject-faults-off": "693670ac1c4c9956c6f56fe367c012aea52fe54392e31845403d91ff30897811",
    "chat-reject-faults-static": "a5f795ccf66220c2ed1ced10a69bcf00626b87a35f770bf9e7dccab7e786a1a3",
    "chat-reject-harsh-active": "bb9c8dd966ff0d9b869d63f61cdda31dc7ae7b0a851d8334d13a95854aa00d64",
    "chat-reject-harsh-off": "1cf82ceaa056d1ae0262b21cb37554a62aabdea4786a05039e3068a0d1c49672",
    "chat-reject-nofault-active": "16b67e769a0ba092ffbe30af2e6392910325d6d95268ee75806964dc50e386ce",
    "chat-reject-nofault-active-pinned": "5e21b6bb6d1d2812bee8981ec5dd5e215a3e00ec739cfb1ba23aa4f93cd291ea",
    "chat-reject-nofault-off": "57498a7c78a6bedcdc1cb6e729c6305d2223a61e3388546b44ed2cb0c4a04cca",
    "chat-reject-nofault-static": "b068a3351bb625263cd244bc98066c27fae96cea75bfad34c178fd76b4ae837b",
    "fleet-autoscale-actions": "34e120a53cbc9bfe016152767f955fc9d6e2426987b408158b9ba8e670f2dad2",
    "fleet-healthy": "c7b5c2320ab52dcce1df5aca2576dafd20e03216af047dabc7f4a8d8137445e0",
    "fleet-kill-k": "4d938a4b0eac40c99acb0b2f48c172c7780e2c8e38cb78d7bfd039c860ac8866",
    "kv-deadline-degrade-barriers": "864e5b155e699f269fb66815311921524b2a3e1aef2f5634187a22582a913516",
    "kv-deadline-degrade-metrics": "d3a916024870343d9cf959572ebbc20e0e9277fb4fff32add6ce7f76fd9fed31",
    "kv-deadline-degrade-report": "5dc79002f4fe30b299695a51a29b1ea0f030d96594c2a006c078f9bf4a3f4318",
    "kv-deadline-degrade-trace": "e51a6f42fdddffd43510e12ff4eb32e1bcb2cfe548621d64cd04306068e322f8",
    "kv-deadline-drop-oldest-barriers": "64841f2ea25d555c97fa66c5defc1ee22a9d8402e5422958ccf6537d67452aa3",
    "kv-deadline-drop-oldest-metrics": "737a9fcc49a5dbb8059a000cfd7534badb94b7159d71f805d5eec033c3dc0e42",
    "kv-deadline-drop-oldest-report": "a40784e220268ea22efa0a1fe46417446ee92f51960b20874fb7a5496fa9173d",
    "kv-deadline-drop-oldest-trace": "1418563d8e63a287565a8fbcc37502c6284f4c7f728298393caa3c3d241602ed",
    "kv-hybrid-soc-barriers": "6fca8e49c455f797448c905053574cb1c8e269427a92770a8d6ccd5fa4a25364",
    "kv-hybrid-soc-metrics": "96a434225bf749c68e54e73a99021c8c11b1576e871aa7e3f3216639ceb55a0b",
    "kv-hybrid-soc-report": "5dc65eeb3957d9079d29219fbd988f369eb34281583c89ddbdd961d21bdb8473",
    "kv-hybrid-soc-trace": "f01caad86ce42de93706d58d9c52fe8f899d03386c600f2b113b93f937c2b363",
    "kv-multiturn-faults": "111d00b6e23dd0aecc455bd351477e667912dc72fa7d46b769836f9fb67ce79c",
    "kv-multiturn-harsh": "af1965740640d346ade289cf5bdad4796fac721bfc63c28e7c4e5cb86e45a714",
    "kv-soc-only-barriers": "2c710357d3a760c2129a15b71b6e7466edaa0b48dfc87d98c2b28a6d9ae7f58c",
    "kv-soc-only-metrics": "017d4b9d91b0db0e0b8e718d22020b3f3c2360bbdbe2098434f75c093bfab32c",
    "kv-soc-only-report": "fac42819913d2ee4598a08f5648d6221fb1d8d9485f93481103c7d47597f681f",
    "kv-soc-only-trace": "98b121a7f7a23a5041dcfebb8fc98786ef70652bfdbc4b5bd26b04f07209f097",
    "trace-chat": "aae2e11a197c928b0fd3c02e2ebbe21dbae93940cdef97d2885a0778edf13105",
    "trace-kv": "611aadb89d5636bb5440b53553afff143cb15a6076da0d1586077ad1db5243b4",
    "workload-coresident-faults": "420413783ac814ca4174661c62e3c4354547523da9479ba94df2c155243d8bdd",
    "workload-coresident-shed": "6470bcbaed27d51734c8233eed2acc41a4127c2adcaf16d24d612723eb624f6b",
    "workload-moe-faults": "b74d21630deb61f05b001f3904771d0edd305dd18ad2b418b4f49269f3cf04f7",
    "workload-moe-shed": "f2baeca22b231f5b5614c694d59936587046d528c55aa106fe81046c1f46a89a",
    "workload-speculative-faults": "4efbab21fdfe24d6ce277ef9ac18c4e5728e640a7d5f08de43645f78412da574",
    "workload-speculative-shed": "cbeb2fd4ac7204f1c8c40c4a8177c51f83cd5b5e9b5fba8be7f732c951c6ffa1",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert _sha(CASES[case]()) == GOLDEN[case]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(KV_BRANCH_CASES))
def test_kv_branch_reached(name):
    assert KV_BRANCHES[name] <= _kv_branches_reached(name)


if __name__ == "__main__":  # pragma: no cover - digest regeneration aid
    for name in sorted(CASES):
        print(f'    "{name}": "{_sha(CASES[name]())}",')
