"""Fleet serving: bursty overload across heterogeneous devices, plus the
kill-K chaos campaign.

Two promises are on the line.  Under bursty overload with device losses,
the fleet must keep its conservation law — every offered request reaches
exactly one terminal outcome (served on some device, failed over, or
accounted as shed); none silently lost — while the router's prefix
locality keeps goodput above what shed-everything would deliver.  And
the chaos campaign's audit battery (journal recovery + refcount
reconciliation after every one of 300 seeded device losses, cycling all
KV crash sites) must come back with zero findings.

The kill schedule rides its own RNG stream, so this bench perturbs no
other baseline.
"""

import os

from repro.fleet import (
    BURSTY_OVERLOAD,
    FleetChaosSpec,
    FleetConfig,
    FleetRuntime,
    run_fleet_chaos,
    shaped_workload,
)
from repro.fleet.chaos import kill_schedule
from repro.kvcache.pool import KV_CRASH_SITES
from repro.llm.datasets import ALPACA_LIKE
from repro.serving.workload import TenantSpec
from repro.telemetry.bench import BenchResult, hash_config, write_bench_result

from report import emit, format_table

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEED = 0
DEVICES = 4
DURATION_MS = 4_000.0
QPS = 40.0
DEADLINE_MS = 1_000.0
KILLS = 12
KILL_GAP_MS = 250.0
RECOVERY_MS = 40.0
CAMPAIGN_KILLS = 300


def _overload_run(kills):
    config = FleetConfig(
        n_devices=DEVICES, seed=SEED, shed_policy="drop-oldest",
        recovery_ms=RECOVERY_MS,
    )
    tenant = TenantSpec(
        name="chat", dataset=ALPACA_LIKE, policy="facil", qps=QPS,
        deadline_ms=DEADLINE_MS, mean_turns=3.0,
    )
    requests = shaped_workload(
        [tenant], DURATION_MS, shape=BURSTY_OVERLOAD, seed=SEED
    )
    schedule, _ = kill_schedule(DEVICES, kills, KILL_GAP_MS, SEED)
    return FleetRuntime(config).run(requests, kills=schedule)


def test_fleet_overload_and_chaos(benchmark):
    def run():
        return (
            _overload_run(kills=0),
            _overload_run(kills=KILLS),
            run_fleet_chaos(
                FleetChaosSpec(
                    n_devices=DEVICES, kills=CAMPAIGN_KILLS, seed=SEED
                )
            ),
        )

    healthy, chaotic, campaign = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label, report in (("healthy", healthy), ("kill-K", chaotic)):
        d = report.to_dict()
        rows.append(
            (
                label, d["offered"], d["served"], d["shed"], d["unserved"],
                d["failovers"], d["kills"],
                f"{d['goodput_qps']:.2f}",
                f"{d['ttft']['p99_ms']:.0f}",
                str(d["none_lost"]),
            )
        )
    text = format_table(
        ["run", "offered", "served", "shed", "unserved", "failovers",
         "kills", "goodput qps", "TTFT p99", "none lost"],
        rows,
    )
    site_line = ", ".join(
        f"{site}={campaign.crashes_by_site.get(site, 0)}"
        for site in KV_CRASH_SITES
    )
    emit(
        "fleet",
        text + f"\ncampaign: {campaign.kills_applied} kills, "
        f"{len(campaign.audit_findings)} audit findings ({site_line})",
    )

    # conservation law holds with and without device losses
    assert healthy.none_lost and chaotic.none_lost
    assert not healthy.audit_findings and not chaotic.audit_findings
    assert chaotic.kills == KILLS
    # device losses under overload may *raise* served counts (a revived
    # device re-enters idle, and failover re-admission gives shed-bound
    # requests another chance), so gate on liveness, not ordering
    assert healthy.served > 0 and chaotic.served > 0
    assert chaotic.failovers > 0

    # the campaign's own oracles are the verdict
    assert campaign.ok, campaign.failures
    assert campaign.kills_applied == CAMPAIGN_KILLS
    assert not campaign.audit_findings
    for site in KV_CRASH_SITES:
        assert campaign.crashes_by_site.get(site, 0) > 0, site

    config = {
        "seed": SEED, "devices": DEVICES, "duration_ms": DURATION_MS,
        "qps": QPS, "deadline_ms": DEADLINE_MS, "kills": KILLS,
        "kill_gap_ms": KILL_GAP_MS, "recovery_ms": RECOVERY_MS,
        "campaign_kills": CAMPAIGN_KILLS, "shape": "bursty-overload",
    }
    write_bench_result(
        os.path.join(_REPO_ROOT, "BENCH_fleet.json"),
        BenchResult(
            name="fleet",
            seed=SEED,
            config_hash=hash_config(config),
            metrics={
                "healthy_goodput_qps": healthy.goodput_qps,
                "healthy_ttft_p99_ms": healthy.ttft.p99_ns / 1e6,
                "chaotic_goodput_qps": chaotic.goodput_qps,
                "chaotic_ttft_p99_ms": chaotic.ttft.p99_ns / 1e6,
                "chaotic_failovers": float(chaotic.failovers),
                "campaign_kills_applied": float(campaign.kills_applied),
                "campaign_audit_findings": float(
                    len(campaign.audit_findings)
                ),
                "campaign_lost": float(
                    0 if campaign.fleet.none_lost else 1
                ),
            },
            notes="goodput in simulated qps; campaign_* must stay at "
                  "kills=300 applied, 0 findings, 0 lost",
        ),
    )
