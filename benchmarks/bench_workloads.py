"""Extension — serving workloads: speculative decoding, MoE expert
placement, and two-model co-residency as benched serving runs.

The headline claim is the speculative goodput gate: on the SoC-bound
decode path (``soc-only`` policy) a cheap draft model plus one batched
verify pass must serve tokens at least as fast as token-at-a-time
decode at acceptance 0.8.  On the ``facil`` path PIM decode is already
bandwidth-optimal, so speculation *loses* there — that ratio is
reported as an observation, not gated.

Every workload's conservation counters (KV refcount audit, expert
budget/journal discipline, co-resident mapping-table teardown) must be
zero; the nightly ``workloads`` job holds ``BENCH_workloads.json`` to
those floors through ``report.py diff``.
"""

import os

from repro.engine.policies import InferenceEngine
from repro.platforms.specs import JETSON_ORIN
from repro.serving.runtime import ServingConfig, ServingRuntime
from repro.serving.workload import TenantSpec, poisson_workload
from repro.telemetry.bench import BenchResult, hash_config, write_bench_result
from repro.workloads import (
    CoResidencySpec,
    ExpertPlacementSpec,
    SpeculativeSpec,
)

from report import emit

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEED = 7
DURATION_MS = 2_000.0


def _requests(policy, qps, secondary_qps=None):
    tenants = [TenantSpec(
        name="chat", policy=policy, qps=qps, deadline_ms=120_000.0,
    )]
    if secondary_qps is not None:
        tenants.append(TenantSpec(
            name="secondary", policy=policy, qps=secondary_qps,
            deadline_ms=120_000.0,
        ))
    return poisson_workload(tenants, duration_ms=DURATION_MS, seed=SEED)


def _config():
    return ServingConfig(
        seed=SEED, queue_capacity=64, shed_policy="drop-oldest"
    )


def _served_tokens(report):
    return sum(o.decode_tokens_served for o in report.outcomes)


def _goodput(report):
    return _served_tokens(report) / (report.duration_ns / 1e9)


def test_workloads(benchmark):
    engine = InferenceEngine(JETSON_ORIN)

    def run():
        out = {}
        # -- speculative: gated pair on the SoC-bound decode path ------
        soc_reqs = _requests("soc-only", qps=3.0)
        out["base_soc"] = ServingRuntime(engine, _config()).run(soc_reqs)
        out["spec_soc"] = ServingRuntime(
            engine, _config(),
            workload=SpeculativeSpec(acceptance_rate=0.8, kv_blocks=2048),
        ).run(soc_reqs)
        # -- speculative on facil: reported observation only -----------
        facil_reqs = _requests("facil", qps=3.0)
        out["base_facil"] = ServingRuntime(engine, _config()).run(facil_reqs)
        out["spec_facil"] = ServingRuntime(
            engine, _config(),
            workload=SpeculativeSpec(acceptance_rate=0.8, kv_blocks=2048),
        ).run(facil_reqs)
        # -- MoE: hit rate must grow with the resident budget ----------
        moe_reqs = _requests("facil", qps=3.0)
        for tag, budget in (("small", 2), ("large", 6)):
            out[f"moe_{tag}"] = ServingRuntime(
                engine, _config(),
                workload=ExpertPlacementSpec(
                    n_experts=8, experts_per_token=2,
                    resident_experts=budget,
                ),
            ).run(moe_reqs)
        # -- co-residency ----------------------------------------------
        out["coresident"] = ServingRuntime(
            engine, _config(), workload=CoResidencySpec(),
        ).run(_requests("facil", qps=2.0, secondary_qps=2.0))
        return out

    runs = benchmark.pedantic(run, rounds=1, iterations=1)

    spec_soc = runs["spec_soc"].workload
    spec_facil = runs["spec_facil"].workload
    moe_small = runs["moe_small"].workload
    moe_large = runs["moe_large"].workload
    cores = runs["coresident"].workload

    goodput_ratio_soc = _goodput(runs["spec_soc"]) / _goodput(runs["base_soc"])
    goodput_ratio_facil = (
        _goodput(runs["spec_facil"]) / _goodput(runs["base_facil"])
    )
    assert goodput_ratio_soc >= 1.0, (
        f"speculative goodput {goodput_ratio_soc:.2f}x must beat the "
        "soc-only baseline at acceptance 0.8"
    )

    conservation = (
        spec_soc["conservation_findings"]
        + spec_facil["conservation_findings"]
        + moe_small["conservation_findings"]
        + moe_large["conservation_findings"]
        + cores["conservation_findings"]
    )
    assert conservation == 0
    assert moe_small["hit_rate"] < moe_large["hit_rate"]

    lines = [
        "workloads bench (jetson-agx-orin, llama3-8b target)",
        f"  speculative goodput ratio  soc-only {goodput_ratio_soc:.3f}x"
        f"  facil {goodput_ratio_facil:.3f}x (observation: PIM decode is"
        " already bandwidth-optimal)",
        f"  speculative acceptance     {spec_soc['mean_acceptance']:.3f}"
        f" over {spec_soc['rounds']} rounds",
        f"  moe hit rate               budget 2: {moe_small['hit_rate']:.3f}"
        f"  budget 6: {moe_large['hit_rate']:.3f}",
        f"  coresident switches        {cores['interference_switches']}"
        f" ({cores['interference_ns'] / 1e6:.1f} ms)",
        f"  conservation findings      {conservation}",
    ]
    emit("workloads", "\n".join(lines))

    config = {
        "platform": "jetson-agx-orin",
        "seed": SEED,
        "duration_ms": DURATION_MS,
        "speculative": {"gamma": 4, "acceptance_rate": 0.8},
        "moe": {"n_experts": 8, "experts_per_token": 2, "budgets": [2, 6]},
        "coresident": {"secondary_model": "phi-1.5", "secondary_share": 0.5},
    }
    write_bench_result(
        os.path.join(_REPO_ROOT, "BENCH_workloads.json"),
        BenchResult(
            name="workloads",
            seed=SEED,
            config_hash=hash_config(config),
            metrics={
                "speculative_goodput_ratio": goodput_ratio_soc,
                "speculative_goodput_ratio_facil": goodput_ratio_facil,
                "speculative_mean_acceptance": spec_soc["mean_acceptance"],
                "speculative_rounds": float(spec_soc["rounds"]),
                "speculative_audit_findings": float(
                    spec_soc["audit_findings"] + spec_facil["audit_findings"]
                ),
                "moe_hit_rate_small": moe_small["hit_rate"],
                "moe_hit_rate_large": moe_large["hit_rate"],
                "moe_evictions_small": float(moe_small["evictions"]),
                "coresident_switches": float(cores["interference_switches"]),
                "coresident_interference_ms": cores["interference_ns"] / 1e6,
                "conservation_findings": float(conservation),
            },
            notes="speculative_goodput_ratio is the soc-only pair "
                  "(draft phi-1.5, gamma 4, acceptance 0.8), gated at "
                  ">= 1.0; speculative_goodput_ratio_facil is a known "
                  "regression, gated at >= 0.65 and within 5% of its "
                  "baseline — PIM GEMV decode is already bandwidth-optimal, "
                  "so speculation pays only where decode is SoC-bound",
        ),
    )
