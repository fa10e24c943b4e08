"""Extension — the replay-diff oracle over the flagship serving benches.

The repo's determinism contract — same seed, same report, byte for byte
— is what makes every BENCH baseline a regression gate instead of a
snapshot.  The static rules (RL005-RL010) guard it by construction; this
bench checks it *by execution* on the two serving benches whose
baselines the nightly job gates on: the overload bench (Jetson, seed 0,
2x load under the ``reject`` policy) and the adaptive-drift bench
(iPhone, seed 11, active controller migrating mid-trace).  Each runs
twice with periodic state-hash barriers (RNG stream, free timelines,
outcome counts, arena PTEs/journal cursor, metrics); the oracle must
report zero diverging barriers, and the final report hashes must match.
"""

import os

from repro.adaptive import AdaptiveConfig
from repro.analysis.replay import replay_diff, state_hash
from repro.llm.datasets import CHAT_TO_LONG_CONTEXT_DRIFT
from repro.serving import (
    ServingConfig,
    ServingRuntime,
    TenantSpec,
    poisson_workload,
    sustainable_qps,
)
from repro.telemetry.bench import BenchResult, hash_config, write_bench_result

from report import emit, format_table

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: one barrier every 16 completed requests — tight enough to localize a
#: divergence to a small window of work, cheap enough to be free
BARRIER_EVERY = 16

OVERLOAD_SEED = 0
OVERLOAD_DURATION_MS = 120_000.0
OVERLOAD_DEADLINE_MS = 30_000.0

DRIFT_SEED = 11
DRIFT_DURATION_MS = 420_000.0
DRIFT_DEADLINE_MS = 15_000.0
DRIFT_QPS = 0.28
#: the controller's tuning, under the names ``config_hash`` has always
#: hashed
ADAPTIVE_KNOBS = dict(
    adaptive_window=16, adaptive_canary_window=8, adaptive_cooldown=32
)


def _overload_case(engines):
    """The overload bench's hottest config: 2x sustainable, reject."""
    engine = engines["jetson-agx-orin"]
    probe = TenantSpec(
        name="probe", policy="facil", deadline_ms=OVERLOAD_DEADLINE_MS
    )
    capacity_qps = sustainable_qps(engine, probe, seed=OVERLOAD_SEED)
    tenant = TenantSpec(
        name="alpaca-like", policy="facil", qps=2.0 * capacity_qps,
        deadline_ms=OVERLOAD_DEADLINE_MS,
    )
    config = ServingConfig(
        seed=OVERLOAD_SEED, queue_capacity=8, shed_policy="reject"
    )

    def run(recorder):
        requests = poisson_workload(
            [tenant], duration_ms=OVERLOAD_DURATION_MS, seed=OVERLOAD_SEED
        )
        return ServingRuntime(engine, config, barriers=recorder).run(requests)

    return run


def _drift_case(engines):
    """The adaptive-drift bench's active run: canary + promotion."""
    from dataclasses import replace

    engine = engines["iphone-15-pro"]
    dataset = replace(
        CHAT_TO_LONG_CONTEXT_DRIFT,
        drift_start_ms=90_000.0, drift_end_ms=150_000.0,
    )
    tenant = TenantSpec(
        name="chat", policy="facil", dataset=dataset,
        qps=DRIFT_QPS, deadline_ms=DRIFT_DEADLINE_MS,
    )
    adaptive = AdaptiveConfig(
        mode="active",
        window_requests=ADAPTIVE_KNOBS["adaptive_window"],
        canary_window=ADAPTIVE_KNOBS["adaptive_canary_window"],
        cooldown_requests=ADAPTIVE_KNOBS["adaptive_cooldown"],
    )
    config = ServingConfig(adaptive=adaptive, seed=DRIFT_SEED)

    def run(recorder):
        requests = poisson_workload(
            [tenant], duration_ms=DRIFT_DURATION_MS, seed=DRIFT_SEED
        )
        report = ServingRuntime(engine, config, barriers=recorder).run(requests)
        # the oracle only proves both runs migrate *identically*; make
        # sure they migrate at all, or the arena barriers prove nothing
        assert report.adaptive["promotions"] >= 1
        return report

    return run


def test_replay_diff_flagship_benches(benchmark, engines):
    cases = {
        "overload@2x reject": _overload_case(engines),
        "adaptive-drift active": _drift_case(engines),
    }

    def run():
        return {
            name: replay_diff(
                case, every=BARRIER_EVERY,
                final_hash=lambda r: state_hash(r.to_json()),
            )
            for name, case in cases.items()
        }

    replays = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        (
            name,
            replay.barriers,
            len(replay.findings),
            "OK" if replay.ok else replay.findings[0].rule_id,
            replay.result.served,
            f"{replay.result.goodput_qps:.3f}",
        )
        for name, replay in replays.items()
    ]
    emit(
        "replay_diff",
        format_table(
            ["bench", "barriers", "findings", "verdict", "served",
             "goodput qps"],
            rows,
        ),
    )

    for name, replay in replays.items():
        assert replay.ok, f"{name}: {replay.render()}"
        assert replay.barriers >= 3, f"{name}: too few barriers to mean much"

    config = {
        "barrier_every": BARRIER_EVERY,
        "overload": {
            "seed": OVERLOAD_SEED, "duration_ms": OVERLOAD_DURATION_MS,
            "platform": "jetson-agx-orin", "shed_policy": "reject",
        },
        "drift": {
            "seed": DRIFT_SEED, "duration_ms": DRIFT_DURATION_MS,
            "platform": "iphone-15-pro", "qps": DRIFT_QPS,
            "dataset": CHAT_TO_LONG_CONTEXT_DRIFT.name, **ADAPTIVE_KNOBS,
        },
    }
    write_bench_result(
        os.path.join(_REPO_ROOT, "BENCH_replay.json"),
        BenchResult(
            name="replay_diff",
            seed=OVERLOAD_SEED,
            config_hash=hash_config(config),
            metrics={
                "overload_barriers": float(
                    replays["overload@2x reject"].barriers
                ),
                "drift_barriers": float(
                    replays["adaptive-drift active"].barriers
                ),
                "diverging_barriers": float(
                    sum(len(r.findings) for r in replays.values())
                ),
            },
            notes="nightly gate: diverging_barriers must be exactly 0",
        ),
    )
