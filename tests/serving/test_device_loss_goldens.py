"""Device-loss oracle: pinned digests of what a crash or a kill leaves.

A crash campaign's report and a fleet chaos campaign's report count
crashes, recoveries and findings, but they cannot tell which KV block an
injection or a device kill freed.  That choice still moves the pool's
free-list order, its block generations and its journal.  Each case
therefore hashes the report together with the state it leaves:

* ``crash-campaign-seed<N>``: ``run_crash_campaign`` with 500 MapID,
  500 KV and 7 migration injections; the report dict plus the final
  state of the KV sweep's pool (free-list order, ``allocs``, ``frees``,
  occupancy samples, and each block's generation and refcount),
  captured by wrapping ``repro.serving.crashes.BlockPool``;
* ``fleet-chaos-seed<N>``: a 24-kill ``run_fleet_chaos`` campaign; the
  campaign and fleet report dicts plus every device's pool state,
  ``kill_sites``, ``audit_findings`` and journal cursor, captured by
  wrapping ``repro.fleet.runtime.build_fleet``.

The digests were captured at commit
ff5c287f49296bf46ea8c021fc2cbe0be336c0aa, before the crash campaign's
KV sweep and ``FleetDevice.kill`` came to share one KV injection.  A
mismatch names the case.  Print fresh digests with
``python -m tests.serving.test_device_loss_goldens`` only when a change
is *meant* to move a crash or a kill.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Dict, List
from unittest import mock

import pytest

import repro.fleet.runtime as fleet_runtime
import repro.serving.crashes as crashes
from repro.fleet.chaos import FleetChaosSpec, run_fleet_chaos
from repro.kvcache.pool import BlockPool

GOLDEN: Dict[str, str] = {
    "crash-campaign-seed0": (
        "1dd4c57ad870967a31a7fb1411c9ce13"
        "76861419644d8d2d8a4670ce2d2c9606"
    ),
    "crash-campaign-seed1": (
        "a2d7adab09095db06e25bff785408f08"
        "9c87e8ecf4f1dc035120572678e879de"
    ),
    "fleet-chaos-seed0": (
        "759a97812c1f95a6977cd1f65d5bf37a"
        "9e910d7a20a81245dbd2da7355435a16"
    ),
    "fleet-chaos-seed3": (
        "5859d19c6d0cf05a62c5728e5567a7d2"
        "3c0b9b44c1ad09e6acc2a22bd4f99252"
    ),
}


def _pool_state(pool: BlockPool) -> Dict:
    return {
        "free": list(pool._free),
        "allocs": pool.allocs,
        "frees": pool.frees,
        "occupancy_samples": list(pool.occupancy_samples),
        "blocks": [(b.generation, b.ref_count) for b in pool.blocks],
    }


def _digest(state: Dict) -> str:
    text = json.dumps(state, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def crash_campaign_state(seed: int) -> Dict:
    pools: List[BlockPool] = []

    def recording_pool(*args, **kwargs) -> BlockPool:
        pool = BlockPool(*args, **kwargs)
        pools.append(pool)
        return pool

    with mock.patch.object(crashes, "BlockPool", recording_pool):
        report = crashes.run_crash_campaign(
            n_injections=500, kv_injections=500, migration_injections=7,
            seed=seed,
        )
    (pool,) = pools
    return {"report": report.to_dict(), "kv_pool": _pool_state(pool)}


@functools.lru_cache(maxsize=None)
def fleet_chaos_state(seed: int) -> Dict:
    devices: List = []
    build_fleet = fleet_runtime.build_fleet

    def recording_build(config):
        built = build_fleet(config)
        devices.extend(built)
        return built

    with mock.patch.object(fleet_runtime, "build_fleet", recording_build):
        report = run_fleet_chaos(FleetChaosSpec(kills=24, seed=seed))
    return {
        "report": report.to_dict(),
        "fleet": report.fleet.to_dict(),
        "devices": [
            {
                "pool": _pool_state(device.pool),
                "kill_sites": list(device.kill_sites),
                "audit_findings": list(device.audit_findings),
                "journal_cursor": list(device.journal.cursor()),
            }
            for device in devices
        ],
    }


CASES = {
    "crash-campaign-seed0": lambda: crash_campaign_state(0),
    "crash-campaign-seed1": lambda: crash_campaign_state(1),
    "fleet-chaos-seed0": lambda: fleet_chaos_state(0),
    "fleet-chaos-seed3": lambda: fleet_chaos_state(3),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_device_loss_state_is_pinned(case):
    assert _digest(CASES[case]()) == GOLDEN[case], case


def test_cases_capture_every_pool():
    """The wrappers see what the campaigns build: one KV sweep pool,
    and one pool per fleet device, each killed at least once."""
    state = crash_campaign_state(0)
    assert state["report"]["kv_injections"] == 500
    assert state["kv_pool"]["allocs"] > 0
    fleet = fleet_chaos_state(0)
    assert len(fleet["devices"]) == FleetChaosSpec().n_devices
    assert all(device["kill_sites"] for device in fleet["devices"])


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for name in sorted(CASES):
        print(f'    "{name}": "{_digest(CASES[name]())}",')
