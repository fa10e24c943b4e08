"""Shared fixtures for the fleet suite.

Fleet devices are built on the smallest platform (iPhone 15 Pro: the
cheapest engine to construct) unless a test's point is heterogeneity.
"""

from typing import Optional

import pytest

from repro.engine.policies import InferenceEngine
from repro.fleet.device import DeviceSpec, FleetDevice
from repro.platforms.specs import IPHONE_15_PRO
from repro.serving.workload import Request


@pytest.fixture(scope="session")
def iphone_engine():
    return InferenceEngine(IPHONE_15_PRO)


def make_device(
    engine, device_id: int = 0, seed: int = 0, **spec_overrides
) -> FleetDevice:
    spec = DeviceSpec(
        device_id=device_id, platform=IPHONE_15_PRO, **spec_overrides
    )
    return FleetDevice(spec, seed=seed, engine=engine)


def make_request(
    req_id: int = 0,
    arrival_ns: float = 0.0,
    prefill_tokens: int = 32,
    decode_tokens: int = 8,
    deadline_ns: float = 10_000e6,
    tenant: str = "chat",
    policy: str = "facil",
    conversation_id: Optional[int] = None,
    turn_index: int = 0,
    context_tokens: int = 0,
) -> Request:
    return Request(
        req_id=req_id,
        tenant=tenant,
        policy=policy,
        arrival_ns=arrival_ns,
        prefill_tokens=prefill_tokens,
        decode_tokens=decode_tokens,
        deadline_ns=deadline_ns,
        conversation_id=conversation_id,
        turn_index=turn_index,
        context_tokens=context_tokens,
    )
