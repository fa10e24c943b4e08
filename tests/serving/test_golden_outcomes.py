"""Golden per-outcome oracle: pinned digests of every request's record.

The report digests of ``test_golden_reports.py`` hash report JSON, which
holds only aggregates.  Each case here hashes one run's outcome list,
one row per request, plus the run's ``duration_ns``, so a change that
moves a single request's wait, TTFT or TTLT, or the device or failover
count of a single fleet request, fails even when every aggregate still
agrees.

* Single-device rows hold every field of a request's outcome record:
  ``(req_id, tenant, status, policy_requested, policy_served, wait_ns,
  ttft_ns, ttlt_ns, decode_tokens_served, retries, backoff_ns,
  fallbacks)``.  The cases cover chat, adaptive remapping, paged KV and
  the three workloads, each under faults.
* Fleet rows hold ``(req_id, status, device_id, failovers, retries,
  ttft_ns)``, the TTFT only for a served request.  The cases cover a
  healthy fleet, kills under autoscaling, drop-oldest shedding under
  kills, quarantine by sustained fault pressure, and every autoscaler
  action (captured at commit 992d138c8f95a494ffc3c49a6abd27d94111dcaf);
  :func:`test_fleet_case_reached` checks that each reached its edge.

The rows read only attributes that every outcome record carries, so
the oracle outlives a change of the record's type.  The digests were
captured at commit ea4d60b41dfb0f67f53fcd3eda9d93f975dd849c.  Print
fresh ones with ``python -m tests.serving.test_golden_outcomes`` only
when a change is *meant* to move simulated results.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Callable, Dict

import pytest

from repro.fleet.runtime import (
    SHED_UNROUTABLE,
    FleetConfig,
    FleetReport,
    FleetRuntime,
)
from repro.fleet.workloads import DIURNAL, shaped_workload
from repro.serving.runtime import DROPPED, ServingReport, ServingRuntime
from repro.serving.workload import TenantSpec

from tests.serving.test_golden_reports import (
    HARSH_FAULTS,
    LIGHT_FAULTS,
    _chat_config,
    _chat_requests,
    _fleet_autoscale_run,
    _fleet_run,
    _iphone,
    _kv_config,
    _kv_requests,
    _workload_run,
)


def _serving_rows(report: ServingReport) -> Dict[str, Any]:
    return {
        "duration_ns": report.duration_ns,
        "outcomes": [
            [
                o.req_id, o.tenant, o.status, o.policy_requested,
                o.policy_served, o.wait_ns, o.ttft_ns, o.ttlt_ns,
                o.decode_tokens_served, o.retries, o.backoff_ns,
                list(o.fallbacks),
            ]
            for o in report.outcomes
        ],
    }


def _fleet_rows(report: FleetReport) -> Dict[str, Any]:
    return {
        "duration_ns": report.duration_ns,
        "outcomes": [
            [
                o.req_id, o.status, o.device_id, o.failovers, o.retries,
                o.ttft_ns if o.served else None,
            ]
            for o in report.outcomes
        ],
    }


def _serve(config, requests) -> ServingReport:
    return ServingRuntime(_iphone(), config).run(requests)


def _fleet_tenant(qps: float) -> TenantSpec:
    return TenantSpec(
        name="chat", policy="facil", qps=qps, deadline_ms=2_000.0,
        mean_turns=2.0,
    )


def _fleet_drop_oldest_kills() -> FleetReport:
    """Two devices with short drop-oldest queues at twice the healthy
    load, each killed three times: queued requests are dropped for
    newer ones, and refugees fail over onto the survivor."""
    config = FleetConfig(
        n_devices=2, seed=0, queue_capacity=4, shed_policy="drop-oldest",
    )
    requests = shaped_workload([_fleet_tenant(40.0)], 1_000.0, shape=DIURNAL, seed=0)
    rng = random.Random(65537)
    kills, t = [], 80e6
    for index in range(6):
        t += 80e6 * (rng.random() - 0.5)
        kills.append((t, index % 2))
        t += 80e6
    return FleetRuntime(config).run(requests, kills=sorted(kills))


def _fleet_health_quarantine() -> FleetReport:
    """Two devices whose PIM fault pressure crosses the quarantine
    watermark (breakers held closed so the health window keeps
    filling), at four times the healthy load: quarantine drains each
    queue onto the other, refugees with no routable device left are
    shed, and the timed revive returns the device to rotation."""
    from repro.fleet.device import DeviceSpec, FleetDevice
    from repro.platforms.specs import ALL_PLATFORMS
    from repro.serving.device import DeviceSettings

    config = FleetConfig(
        n_devices=2, seed=0, recovery_ms=20.0, pim_fault_rate=0.75,
    )
    devices = [
        FleetDevice(
            DeviceSpec(
                device_id=i, platform=ALL_PLATFORMS[i],
                settings=DeviceSettings(
                    pim_fault_rate=0.75, breaker_min_observations=10_000,
                    kv_blocks=64,
                ),
            ),
            seed=0,
        )
        for i in range(2)
    ]
    requests = shaped_workload([_fleet_tenant(80.0)], 1_000.0, shape=DIURNAL, seed=0)
    return FleetRuntime(config, devices=devices).run(requests)


SERVING_CASES: Dict[str, Callable[[], ServingReport]] = {
    "chat-drop-oldest-faults": lambda: _serve(
        _chat_config("drop-oldest", LIGHT_FAULTS, "off"), _chat_requests()
    ),
    "chat-reject-harsh": lambda: _serve(
        _chat_config("reject", HARSH_FAULTS, "off"), _chat_requests()
    ),
    "adaptive-degrade-faults-active": lambda: _serve(
        _chat_config("degrade", LIGHT_FAULTS, "active"), _chat_requests()
    ),
    "kv-multiturn-harsh": lambda: _serve(_kv_config(HARSH_FAULTS), _kv_requests()),
    "workload-speculative-faults": lambda: _workload_run("speculative", True),
    "workload-moe-faults": lambda: _workload_run("moe", True),
    "workload-coresident-faults": lambda: _workload_run("coresident", True),
}

FLEET_CASES: Dict[str, Callable[[], FleetReport]] = {
    "fleet-healthy": lambda: _fleet_run(False),
    "fleet-kill-k": lambda: _fleet_run(True),
    "fleet-drop-oldest-kills": _fleet_drop_oldest_kills,
    "fleet-health-quarantine": _fleet_health_quarantine,
    "fleet-autoscale-actions": _fleet_autoscale_run,
}


def _digest(case: str) -> str:
    if case in SERVING_CASES:
        rows = _serving_rows(SERVING_CASES[case]())
    else:
        rows = _fleet_rows(FLEET_CASES[case]())
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


CASES = sorted([*SERVING_CASES, *FLEET_CASES])

GOLDEN: Dict[str, str] = {
    "adaptive-degrade-faults-active": "48ef09c1af35591cb826346fe826380b45b1b95c16cc19c6ea25dcc67e63cf21",
    "chat-drop-oldest-faults": "371e0b4f6566dc4826cc61786ec0fe833e6ba05de610dfcd7579360e3032ba86",
    "chat-reject-harsh": "32de0d49cc8948689bb53a5b71dbc22656939fca02d8f39607f93b61c3d86ff0",
    "fleet-autoscale-actions": "c24e42cf6b4fc013620b49aa5356a6a98dae5624d14c5951238b5b615f6c11eb",
    "fleet-drop-oldest-kills": "dc64421a07be6c5178a6384285121fa8e2fdef41bfe3558d8af0fd15fb632906",
    "fleet-health-quarantine": "fc1391bb4aea05f34b10ca49a4c1d97221ea2798ff0bffce3fba4015eb2c2ef4",
    "fleet-healthy": "592d49a8a8e82acd2ad85abd6cbf3f1042a21bdd948604cf49cb2d1fdfea5462",
    "fleet-kill-k": "f69a48fea5608ec34ca26f6bd2ae9a26f1795072845dc61d4cda39346f5e3e0c",
    "kv-multiturn-harsh": "9c4bccdea958cc42558c35b32b8718de542518637df968ac2bb0568bb9389c06",
    "workload-coresident-faults": "f820956bfa86187009001fbcc47cec9541a456b64aaacaeb03900efde192aefc",
    "workload-moe-faults": "0f0e99787fbe821f7b03d9d37f3b170f2b8068dd381b9f00eb7e559b043a0d6f",
    "workload-speculative-faults": "8e6c5975a4d3a9c976c9b59839cf30eb932261be5f0071794b79456aee47493c",
}


@pytest.mark.parametrize("case", CASES)
def test_outcome_digest(case):
    assert _digest(case) == GOLDEN[case]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == CASES


def test_fleet_case_reached():
    kill_k = FLEET_CASES["fleet-kill-k"]()
    assert kill_k.kills > 0 and kill_k.failovers > 0
    dropping = FLEET_CASES["fleet-drop-oldest-kills"]()
    assert dropping.kills > 0 and dropping.failovers > 0
    assert DROPPED in [o.status for o in dropping.outcomes]
    quarantined = FLEET_CASES["fleet-health-quarantine"]()
    assert quarantined.health_quarantines > 0 and quarantined.kills == 0
    assert quarantined.failovers > 0
    assert SHED_UNROUTABLE in [o.status for o in quarantined.outcomes]
    scaled = FLEET_CASES["fleet-autoscale-actions"]()
    summary = scaled.autoscaler
    assert summary is not None
    assert (summary["scale_ups"], summary["drains"]) == (2, 1)
    assert summary["holds_unhealthy"] == 4 and scaled.kills == 6
    # the drain parks its device in STANDBY on the tick that drained it
    drain = next(e for e in summary["events"] if e["action"] == "drain")
    lane = scaled.devices[drain["device_id"]]
    assert (drain["t_ns"], "draining", "standby") in lane["transitions"]


if __name__ == "__main__":  # pragma: no cover - digest regeneration aid
    for name in CASES:
        print(f'    "{name}": "{_digest(name)}",')
