"""Extension — adaptive remapping under workload drift: active vs static.

The adaptive controller's promise (see docs/ADAPTIVE.md) is two-sided:
on a *drifting* workload it must recover the goodput a statically
selected mapping leaves on the table, and on a *stationary* workload it
must cost nothing — byte-identical serving outcomes with the controller
watching but never moving.  This bench drives both halves.

The drifting trace is the canonical ``CHAT_TO_LONG_CONTEXT_DRIFT``
tenant: chat prompts (~800 tokens, ideal FACIL MapID 3 — the static
selector's pick) crossfade into long-context document turns (~3000
tokens, ideal MapID 5) with long, decode-heavy answers, so the stale
mapping's PU-crossing penalty lands on the PIM bottleneck.  The static
run carries that penalty for the rest of the trace; the active run
canaries a migration to MapID 5, promotes it, and serves the tail
unpenalized.  The nightly job gates on ``goodput_gain`` from this
suite's BENCH_adaptive.json.
"""

import os
from dataclasses import replace

from repro.adaptive import AdaptiveConfig
from repro.engine.policies import InferenceEngine  # noqa: F401 (fixture type)
from repro.llm.datasets import CHAT_TO_LONG_CONTEXT_DRIFT
from repro.serving import ServingConfig, ServingRuntime, TenantSpec, poisson_workload
from repro.telemetry.bench import BenchResult, hash_config, write_bench_result

from report import emit, format_table

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEED = 11
DURATION_MS = 420_000.0
DRIFT_START_MS = 90_000.0
DRIFT_END_MS = 150_000.0
QPS = 0.28
#: TTFT budget: queue wait + ~3 s long-context SoC prefill fits while the
#: pipeline keeps up; a penalized PIM bottleneck overruns it via backlog
DEADLINE_MS = 15_000.0
#: the controller's tuning, under the names ``config_hash`` has always
#: hashed
ADAPTIVE_KNOBS = dict(
    adaptive_window=16, adaptive_canary_window=8, adaptive_cooldown=32
)


def _workload(duration_ms=DURATION_MS):
    dataset = replace(
        CHAT_TO_LONG_CONTEXT_DRIFT,
        drift_start_ms=DRIFT_START_MS,
        drift_end_ms=DRIFT_END_MS,
    )
    tenant = TenantSpec(
        name="chat", policy="facil", dataset=dataset,
        qps=QPS, deadline_ms=DEADLINE_MS,
    )
    return poisson_workload([tenant], duration_ms=duration_ms, seed=SEED)


def _run(engine, mode, requests):
    adaptive = AdaptiveConfig(
        mode=mode,
        window_requests=ADAPTIVE_KNOBS["adaptive_window"],
        canary_window=ADAPTIVE_KNOBS["adaptive_canary_window"],
        cooldown_requests=ADAPTIVE_KNOBS["adaptive_cooldown"],
    )
    config = ServingConfig(adaptive=adaptive, seed=SEED)
    return ServingRuntime(engine, config).run(requests)


def test_adaptive_drift(benchmark, engines):
    engine = engines["iphone-15-pro"]
    requests = _workload()
    # stationary slice: pre-drift traffic only, for the no-regret gate
    stationary = [r for r in requests if r.arrival_ns < DRIFT_START_MS * 1e6]

    def run():
        return {
            "static": _run(engine, "static", requests),
            "active": _run(engine, "active", requests),
            "off@stationary": ServingRuntime(
                engine, ServingConfig(seed=SEED)
            ).run(stationary),
            "active@stationary": _run(engine, "active", stationary),
        }

    reports = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name, report in reports.items():
        d = report.to_dict()
        a = d["adaptive"]
        rows.append(
            (
                name,
                d["offered"],
                d["served"],
                f"{d['goodput_qps']:.4f}",
                f"{d['slo_attainment']:.3f}",
                f"{d['ttft']['p99_ms']:.0f}",
                f"{d['ttlt']['p99_ms']:.0f}",
                "-" if a is None else f"{a['promotions']}/{a['rollbacks']}",
                "-" if a is None else " ".join(str(k) for k in a["page_map_ids"]),
            )
        )
    text = format_table(
        ["run", "offered", "served", "goodput qps", "SLO",
         "TTFT p99", "TTLT p99", "promo/rollback", "final MapIDs"],
        rows,
    )
    emit("adaptive_drift", text)

    static, active = reports["static"], reports["active"]

    # the static selector's mapping goes stale mid-trace but never moves
    assert static.adaptive["migrations_started"] == 0
    assert static.adaptive["page_map_ids"] == [3, 3, 3, 3]
    # the active controller canaries, promotes, and lands on the ideal
    # post-drift mapping with a clean audit trail
    assert active.adaptive["promotions"] >= 1
    assert active.adaptive["rollbacks"] == 0
    assert active.adaptive["page_map_ids"] == [5, 5, 5, 5]
    assert active.adaptive["audit_findings"] == 0
    # ... and it pays off on every serving axis
    assert active.goodput_qps > static.goodput_qps
    assert active.slo_attainment >= static.slo_attainment
    assert active.served >= static.served
    assert active.ttlt.p99_ns <= static.ttlt.p99_ns

    # no-regret gate: on the stationary pre-drift slice the active
    # controller never migrates and the serving outcomes are identical
    # to adaptive="off", byte for byte
    off_s, act_s = reports["off@stationary"], reports["active@stationary"]
    assert act_s.adaptive["migrations_started"] == 0
    d_off, d_act = off_s.to_dict(), act_s.to_dict()
    d_off.pop("adaptive")
    d_act.pop("adaptive")
    assert d_act == d_off

    goodput_gain = active.goodput_qps / static.goodput_qps
    config = {
        "seed": SEED, "duration_ms": DURATION_MS, "qps": QPS,
        "deadline_ms": DEADLINE_MS, "platform": "iphone-15-pro",
        "drift_window_ms": [DRIFT_START_MS, DRIFT_END_MS],
        "dataset": CHAT_TO_LONG_CONTEXT_DRIFT.name,
        **ADAPTIVE_KNOBS,
    }
    write_bench_result(
        os.path.join(_REPO_ROOT, "BENCH_adaptive.json"),
        BenchResult(
            name="adaptive_drift",
            seed=SEED,
            config_hash=hash_config(config),
            metrics={
                "static_goodput_qps": static.goodput_qps,
                "active_goodput_qps": active.goodput_qps,
                "goodput_gain": goodput_gain,
                "static_slo": static.slo_attainment,
                "active_slo": active.slo_attainment,
                "static_ttlt_p99_ms": static.ttlt.p99_ns / 1e6,
                "active_ttlt_p99_ms": active.ttlt.p99_ns / 1e6,
                "active_promotions": float(active.adaptive["promotions"]),
                "active_rollbacks": float(active.adaptive["rollbacks"]),
                "active_audit_findings": float(
                    active.adaptive["audit_findings"]
                ),
            },
            notes="goodput in simulated qps on the drifting trace; the "
                  "nightly regression gate requires goodput_gain >= 1.02 "
                  "and zero rollbacks/audit findings",
        ),
    )
