"""Golden pricing oracle: pinned digests of every policy-pricing surface.

Each case prices one surface on one platform and hashes what it
returns:

* ``run_query`` over the four policies, prefill lengths
  1/2/8/24/64/128/512/1024, decode lengths 1/2/64/256 and
  ``dynamic_offload`` None/True/False;
* ``prefill_crossover`` and ``facil_crossover`` at the default and at
  small ``max_len`` values;
* ``ChatSession`` turns per policy, with and without a
  ``KvCacheManager``, plus a session that switches policy mid-way;
* ``ResilientEngine.run_query`` with healthy components, a failed
  mapping path, failed PIM units and both, at 0/1/3/5 transient
  faults;
* the prefill ``DeviceCore.route`` prices, once with PIM allowed and
  once with a brown-out keeping it off PIM;
* ``DeviceCore.route`` under open breakers: the mapping breaker, the
  PIM breaker or both tripped, then requests routed before, at and
  after the cooldown, hashing every ``Route`` field and both breakers'
  transitions;
* ``sustainable_qps`` and ``query_energy`` per policy.

``ttft_ns``, ``ttlt_ns``, every turn field, every routed prefill and
every energy term are hashed exactly (``repr``).  ``breakdown``
dictionaries are display-only: their keys are hashed exactly and their
values at 12 significant digits, so a change may re-associate a sum
inside a breakdown term without moving a digest.

The digests were captured at commit
4fa15944e82675a4502f73bb8f8c07cdabbfc3dd, before the policy table was
folded into one prefill-pricing method.  The four ``chat`` digests
were re-pinned once on purpose, when a session without a KV manager
started to price prefill attention over the whole conversation, as its
docstring says, instead of over the new tokens only.  The four
``open_breakers`` digests were captured later, at commit
52631f5ce0d063249e2739b5867b5816370cac30, before the policy facts moved
into one table of records.  A mismatch names
the surface and platform.  Print fresh digests with
``python -m tests.engine.test_pricing_golden`` only when a change is
*meant* to move simulated latencies.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import astuple
from typing import Callable, Dict, Iterable

import pytest

from repro.engine.energy import query_energy
from repro.engine.metrics import QueryLatency
from repro.engine.policies import POLICIES, InferenceEngine
from repro.engine.session import ChatSession
from repro.kvcache import BlockPool, KvCacheManager, KvSpec
from repro.platforms.specs import ALL_PLATFORMS
from repro.reliability.degrade import ResilientEngine
from repro.serving.device import DeviceCore
from repro.serving.runtime import ServingConfig, sustainable_qps
from repro.serving.workload import Request, TenantSpec

PREFILL_LENS = (1, 2, 8, 24, 64, 128, 512, 1024)
DECODE_LENS = (1, 2, 64, 256)
OFFLOADS = (None, True, False)
#: (user tokens, response tokens) of each chat turn
TURNS = ((32, 32), (16, 16), (20, 8), (7, 1), (100, 50), (3, 64))
#: (mapping failed, pim failed)
HEALTH_STATES = ((False, False), (True, False), (False, True), (True, True))
TRANSIENT_FAULTS = (0, 1, 3, 5)
ROUTE_LENS = (1, 8, 24, 64, 512)
#: breakers tripped at time 0 before routing under them
TRIPPED = (("mapping",), ("pim",), ("mapping", "pim"))
#: route times around the breakers' 5 ms cooldown: before, at, after
OPEN_ROUTE_TIMES = (0.0, 1e6, 5e6 - 1.0, 5e6, 5e6 + 1.0, 8e6)


@functools.lru_cache(maxsize=None)
def _engine(platform_name: str) -> InferenceEngine:
    platform = next(p for p in ALL_PLATFORMS if p.name == platform_name)
    return InferenceEngine(platform)


def _digest(records: Iterable[object]) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def _latency(q: QueryLatency) -> tuple:
    """A query's exact fields plus its breakdown at 12 significant digits."""
    return (
        q.policy, q.prefill_tokens, q.decode_tokens, q.ttft_ns, q.ttlt_ns,
        [(key, f"{value:.12g}") for key, value in q.breakdown.items()],
    )


def _run_query(platform: str) -> str:
    engine = _engine(platform)
    return _digest(
        _latency(engine.run_query(policy, p, d, dynamic_offload=offload))
        for policy in POLICIES
        for p in PREFILL_LENS
        for d in DECODE_LENS
        for offload in OFFLOADS
    )


def _crossovers(platform: str) -> str:
    engine = _engine(platform)
    return _digest(
        (engine.prefill_crossover(*args), engine.facil_crossover(*args))
        for args in ((), (1,), (4,), (16,), (100,))
    )


def _chat(platform: str) -> str:
    engine = _engine(platform)
    records = []
    for managed in (False, True):
        for policy in POLICIES + ("switch",):
            kv = None
            if managed:
                kv = KvCacheManager(BlockPool(256, KvSpec(block_tokens=16)))
            start = "hybrid-static" if policy == "switch" else policy
            session = ChatSession(engine, start, kv=kv, conversation_id=7)
            for i, (user, response) in enumerate(TURNS):
                if policy == "switch" and i == 3:
                    session.set_policy("facil")
                records.append(astuple(session.turn(user, response)))
            records.append((session.total_ns, session.total_relayout_ns))
    return _digest(records)


def _resilient(platform: str) -> str:
    engine = _engine(platform)
    records = []
    for mapping_failed, pim_failed in HEALTH_STATES:
        for faults in TRANSIENT_FAULTS:
            for policy in POLICIES:
                for p, d in ((1, 2), (24, 64), (512, 256)):
                    resilient = ResilientEngine(engine)
                    if mapping_failed:
                        resilient.note_fault(ResilientEngine.MAPPING, permanent=True)
                    if pim_failed:
                        resilient.note_fault(ResilientEngine.PIM, permanent=True)
                    q = resilient.run_query(policy, p, d, transient_faults=faults)
                    records.append((
                        q.requested_policy, q.effective_policy, _latency(q.latency),
                        q.healthy_ttlt_ns, q.retries, q.backoff_ns, q.fallbacks,
                        q.served, resilient.monitor.summary(),
                    ))
    return _digest(records)


def _routes(platform: str) -> str:
    engine = _engine(platform)
    records = []
    for backlog_ns in (0.0, 1e12):  # the second browns out the PIM queue
        for policy in POLICIES:
            core = DeviceCore(engine, ServingConfig())
            for i, p in enumerate(ROUTE_LENS):
                request = Request(i, "t", policy, 0.0, p, 16, 1e9)
                for tokens in (None, max(1, p // 3)):
                    route = core.route(request, 1e6 * i, backlog_ns, prefill_tokens=tokens)
                    records.append((
                        route.policy, route.prefill_ns, route.prefill_resource,
                        route.prefill_component, route.pim_allowed,
                        route.brownout_active, route.fallbacks,
                    ))
    return _digest(records)


def _open_breakers(platform: str) -> str:
    engine = _engine(platform)
    records = []
    for tripped in TRIPPED:
        for policy in POLICIES:
            core = DeviceCore(engine, ServingConfig())
            for name in tripped:
                breaker = core.breakers[name]
                for _ in range(breaker.min_observations):
                    breaker.record_failure(0.0)
            for i, now_ns in enumerate(OPEN_ROUTE_TIMES):
                for p in ROUTE_LENS:
                    request = Request(i, "t", policy, 0.0, p, 16, 1e9)
                    route = core.route(request, now_ns, 0.0)
                    records.append((
                        route.policy, route.prefill_ns, route.prefill_resource,
                        route.prefill_component, route.pim_allowed,
                        route.brownout_active, route.fallbacks,
                    ))
            records.append((
                core.mapping_breaker.transitions, core.pim_breaker.transitions,
            ))
    return _digest(records)


def _capacity(platform: str) -> str:
    engine = _engine(platform)
    return _digest(
        sustainable_qps(engine, TenantSpec("t", policy=policy), n=60, seed=seed)
        for policy in POLICIES
        for seed in (0, 1)
    )


def _energy(platform: str) -> str:
    engine = _engine(platform)
    return _digest(
        astuple(query_energy(engine, policy, p, d))
        for policy in POLICIES
        for p, d in ((1, 1), (24, 64), (512, 16))
    )


SURFACES: Dict[str, Callable[[str], str]] = {
    "run_query": _run_query,
    "crossovers": _crossovers,
    "chat": _chat,
    "resilient": _resilient,
    "routes": _routes,
    "open_breakers": _open_breakers,
    "capacity": _capacity,
    "energy": _energy,
}

CASES: Dict[str, Callable[[], str]] = {
    f"{surface}/{platform.name}": functools.partial(fn, platform.name)
    for surface, fn in SURFACES.items()
    for platform in ALL_PLATFORMS
}

GOLDEN: Dict[str, str] = {
    "capacity/ideapad-slim-5": "ee4ecc086d9c7d8bba4a887d0aef681df397ef3b632521362ac364afaf3c640a",
    "capacity/iphone-15-pro": "69298271ecff5b2d0a25bb0e08776d36bbf7a9aca083dbdd29d04e7dcccca51f",
    "capacity/jetson-agx-orin": "94a2605c8a5ff67c86ede7bd4d601725608c1aea14d5cc6b0464502f61c5b987",
    "capacity/macbook-pro-m3-max": "b0f29f18d85d8ecc2c1717267f198a47286fb73e7b4d481c1acca667fd1552a6",
    "chat/ideapad-slim-5": "30429f7e82f5a18395ed442a53c7a4ebdc27bcc4c393b6f1bafd26ed3a3ad8fa",
    "chat/iphone-15-pro": "505604c64e7c4c9f7640744e7b4103c6c399540b341cee459c927016e5ac9fa8",
    "chat/jetson-agx-orin": "7a5535e14ffc28b43548bc94973b75184e20134a6027c99cb2d4f877b0504d9b",
    "chat/macbook-pro-m3-max": "a95ea98f7b6b7bff0ea96c0e41d00bf0d21d5303621d548bb787db64e62714c3",
    "crossovers/ideapad-slim-5": "18e7d0f96588cafcfd691a2ef9de9182bf441a2444690996c4e42848c5a2e734",
    "crossovers/iphone-15-pro": "8e45c9687df69db18c7036edeedf5116611b0c43aa475ac74b810523ddfc0ec9",
    "crossovers/jetson-agx-orin": "8e45c9687df69db18c7036edeedf5116611b0c43aa475ac74b810523ddfc0ec9",
    "crossovers/macbook-pro-m3-max": "8e45c9687df69db18c7036edeedf5116611b0c43aa475ac74b810523ddfc0ec9",
    "energy/ideapad-slim-5": "3cb0f3da95edde8369ee596a9fb7fde07d83dc9dfe7b08632c84acf8bf92e2ff",
    "energy/iphone-15-pro": "3f9fe545ea241593e2b754046b9ea08d68998b381c6f08f7b2843f232748365f",
    "energy/jetson-agx-orin": "bcfeb888fd112e8eccafa0b0450d94e49840c5bbcd7f2c2f27ff8ecaf0859d19",
    "energy/macbook-pro-m3-max": "bcfeb888fd112e8eccafa0b0450d94e49840c5bbcd7f2c2f27ff8ecaf0859d19",
    "open_breakers/ideapad-slim-5": "69661d989808ddd3177322fbabc16e75aa6f969057d6b7a47dbbe80c656cb00c",
    "open_breakers/iphone-15-pro": "2801442fb0a8c0e90b5710f8b63b64a7a478bd06ea0c91b8db041dc6eaf92f02",
    "open_breakers/jetson-agx-orin": "247757e99e8dd803fc061b3a14d0d4335a6c4e01b2dce11b3428df3d54dba3fe",
    "open_breakers/macbook-pro-m3-max": "72f69be16c8c764172a51852767b606daac7de44c1a4f5d7ba50a81e05e02aec",
    "resilient/ideapad-slim-5": "b029c8db581510c3c863b53f6333d2c9d66b7d229df8fda81ae2052f016b10da",
    "resilient/iphone-15-pro": "32b474b5f312caefb805a52bf0e9e1718da62a496c3a58808754e7c081e729ad",
    "resilient/jetson-agx-orin": "4b05a9ac31508324b205fb652a8f484a0b4752e127af8fafdd6e6587d8bc1533",
    "resilient/macbook-pro-m3-max": "1bd52837bcd58d7fb17e9279f4fad20dd581f644b73d4abf16f7ac47b2cc2959",
    "routes/ideapad-slim-5": "44cb39f6f07944c26d9fa9b1527bc5c8fdfba7732eef60c03cd875514973b91b",
    "routes/iphone-15-pro": "a3a008e95f4aef45a3cb6636e79b3696ff98e709d4172a66de54b04caa3ec70d",
    "routes/jetson-agx-orin": "7b6b2170da34b706cccccffda82b2c39852317d30b7a52e28c7dc6a042f0c637",
    "routes/macbook-pro-m3-max": "8f661a8b26342cfad2d4121a21c7b883da5114d11044594939da7b1fbf893c91",
    "run_query/ideapad-slim-5": "9d0e63cc8aa13725fa7cae0b4306277f72e017d5846d469754da2d38c0dd8a53",
    "run_query/iphone-15-pro": "2c7850d2966082cac5af9ae241c253a1d368c4aa20d2adbf5726f36077245215",
    "run_query/jetson-agx-orin": "88b5f1fc9bd3430e6b80d0dd9557c7fefc7f78cfe82e021be5185027bbfe91fb",
    "run_query/macbook-pro-m3-max": "296eb22989ca3f10d0611ff6d478c8ba9d1f9a1f1cd0c392c7b9b023ca9122fb",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert CASES[case]() == GOLDEN[case]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


if __name__ == "__main__":  # pragma: no cover - digest regeneration aid
    for name in sorted(CASES):
        print(f'    "{name}": "{CASES[name]()}",')
