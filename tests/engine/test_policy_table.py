"""The policy table: one frozen record per policy, read by every site.

Two properties keep the table the only place a policy's behaviour is
written:

* no module outside ``repro/engine/policies.py`` compares a value with
  a policy name (an AST scan of the source tree);
* a fifth record patched into the table — FACIL without dynamic
  offload — prices, routes, falls back, costs energy and gets its DSE
  slowdown with no other source edit.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from types import MappingProxyType
from typing import List, Tuple

import pytest

import repro
from repro.dse.evaluate import evaluate_point
from repro.dse.spec import SweepSpec
from repro.engine import policies
from repro.engine.energy import query_energy
from repro.engine.policies import (
    POLICIES,
    POLICY_TABLE,
    InferenceEngine,
    Policy,
    decode_on_pim,
    policy_record,
)
from repro.platforms.specs import IPHONE_15_PRO
from repro.reliability.degrade import ResilientEngine
from repro.serving.device import DeviceCore
from repro.serving.runtime import ServingConfig
from repro.serving.workload import Request

SRC = Path(repro.__file__).resolve().parent
TABLE_MODULE = SRC / "engine" / "policies.py"
NAME_OPS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)

FIFTH = "facil-no-offload"
FIFTH_RECORD = Policy(FIFTH, pim_layout=True, mapping_fallback="hybrid-static")


def name_comparisons(source: str) -> List[int]:
    """Line numbers of every ``==``, ``!=``, ``in`` or ``not in``
    comparison with a policy-name literal (bare, or inside a tuple,
    list or set literal) in *source*."""

    def names_a_policy(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return node.value in POLICIES
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(names_a_policy(elt) for elt in node.elts)
        return False

    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, NAME_OPS) for op in node.ops):
            continue
        if any(names_a_policy(side) for side in [node.left, *node.comparators]):
            lines.append(node.lineno)
    return lines


class TestNoNameComparisons:
    def test_scanner_sees_each_comparison_form(self):
        source = "\n".join((
            'a = policy == "facil"',
            'b = "soc-only" != policy',
            'c = policy in ("hybrid-static", "hybrid-dynamic")',
            'd = policy not in ["facil"]',
            'e = policy is "facil"',  # identity is not a name comparison
            'f = policy == "reject"',  # not a policy name
            'g = config["mapping"]',
        ))
        assert name_comparisons(source) == [1, 2, 3, 4]

    def test_no_module_outside_the_table_compares_a_policy_name(self):
        found: List[Tuple[str, int]] = []
        for path in sorted(SRC.rglob("*.py")):
            if path == TABLE_MODULE:
                continue
            for line in name_comparisons(path.read_text()):
                found.append((str(path.relative_to(SRC)), line))
        assert found == []


class TestTable:
    def test_names_keep_the_paper_order(self):
        assert POLICIES == ("soc-only", "hybrid-static", "hybrid-dynamic", "facil")
        assert tuple(POLICY_TABLE) == POLICIES
        assert all(POLICY_TABLE[name].name == name for name in POLICIES)

    def test_the_five_facts(self):
        facts = {
            name: (r.relayout, r.offload, r.decode_on_pim, r.pim_layout, r.mapping_fallback)
            for name, r in POLICY_TABLE.items()
        }
        assert facts == {
            "soc-only": (False, False, False, False, None),
            "hybrid-static": (True, False, True, False, None),
            "hybrid-dynamic": (True, True, True, False, None),
            "facil": (False, True, True, True, "hybrid-static"),
        }

    def test_every_fallback_is_a_policy_without_one(self):
        for record in POLICY_TABLE.values():
            if record.mapping_fallback is not None:
                fallback = POLICY_TABLE[record.mapping_fallback]
                assert fallback.mapping_fallback is None
                assert not fallback.pim_layout

    def test_records_and_table_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            POLICY_TABLE["facil"].offload = False  # type: ignore[misc]
        with pytest.raises(TypeError):
            POLICY_TABLE[FIFTH] = FIFTH_RECORD  # type: ignore[index]

    def test_unknown_name_raises_the_one_message(self):
        with pytest.raises(ValueError, match=r"unknown policy 'warp-drive'; known: \("):
            policy_record("warp-drive")
        with pytest.raises(ValueError, match="unknown policy"):
            decode_on_pim("warp-drive")

    @pytest.mark.parametrize("name", POLICIES)
    def test_components(self, name):
        record = POLICY_TABLE[name]
        assert record.component("pim") == "pim"
        assert record.component("soc") == ("mapping" if name == "facil" else "soc")


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(IPHONE_15_PRO)


@pytest.fixture
def fifth(monkeypatch):
    """The table with FACIL-without-dynamic-offload as a fifth record."""
    monkeypatch.setattr(
        policies, "POLICY_TABLE",
        MappingProxyType({**POLICY_TABLE, FIFTH: FIFTH_RECORD}),
    )
    return FIFTH


def _latency(q):
    return q.ttft_ns, q.ttlt_ns, q.breakdown


def _route(route):
    return dataclasses.replace(route, fallbacks=())


def _trip(breaker):
    for _ in range(breaker.min_observations):
        breaker.record_failure(0.0)


class TestFifthRecord:
    """A new policy is one record: nothing else in the source changes."""

    @pytest.mark.parametrize("offload", (None, True, False))
    def test_prices_like_facil_without_dynamic_offload(self, engine, fifth, offload):
        for p, d in ((1, 2), (8, 16), (64, 64), (512, 8)):
            ours = engine.run_query(fifth, p, d, dynamic_offload=offload)
            assert ours.policy == fifth
            assert _latency(ours) == _latency(
                engine.run_query("facil", p, d, dynamic_offload=False)
            )

    def test_soc_phase_is_the_mapping_component(self, engine, fifth):
        core = DeviceCore(engine, ServingConfig())
        route = core.route(Request(0, "t", fifth, 0.0, 1, 16, 1e9), 0.0, 0.0)
        # no offload: even a one-token prefill stays on the SoC
        assert (route.policy, route.prefill_resource) == (fifth, "soc")
        assert route.prefill_component == "mapping"
        assert route.pim_decode and route.fallbacks == ()

    def test_open_mapping_breaker_routes_to_the_fallback(self, engine, fifth):
        routes = {}
        for name in (fifth, "facil"):
            core = DeviceCore(engine, ServingConfig())
            _trip(core.mapping_breaker)
            routes[name] = core.route(Request(0, "t", name, 0.0, 24, 16, 1e9), 1e6, 0.0)
        ours = routes[fifth]
        assert ours.policy == "hybrid-static"
        assert ours.fallbacks == (f"{fifth}->hybrid-static (mapping breaker open)",)
        assert _route(ours) == _route(routes["facil"])

    def test_resilient_engine_falls_back_when_mapping_failed(self, engine, fifth):
        resilient = ResilientEngine(engine)
        resilient.note_fault(ResilientEngine.MAPPING, permanent=True)
        q = resilient.run_query(fifth, 24, 16)
        assert q.effective_policy == "hybrid-static"
        assert q.fallbacks == (f"{fifth}->hybrid-static (mapping failed)",)
        assert _latency(q.latency) == _latency(engine.run_query("hybrid-static", 24, 16))

    def test_healthy_service_counts_as_a_mapping_success(self, engine, fifth):
        resilient = ResilientEngine(engine)
        q = resilient.run_query(fifth, 24, 16)
        assert q.effective_policy == fifth and q.fallbacks == ()
        assert resilient.monitor.summary() == {"mapping": "healthy", "pim": "healthy"}

    def test_query_energy_equals_facils(self, engine, fifth):
        for p, d in ((1, 1), (24, 64), (512, 16)):
            ours = dataclasses.astuple(query_energy(engine, fifth, p, d))
            facil = dataclasses.astuple(query_energy(engine, "facil", p, d))
            assert ours == (fifth,) + facil[1:]

    def test_dse_point_pays_the_table_iii_slowdown(self, fifth):
        spec = SweepSpec(
            duration_ms=300.0,
            axes=(("platform", (IPHONE_15_PRO.name,)), ("mapping", ("facil",))),
        )
        (point,) = spec.points()
        metrics = evaluate_point({**point.config, "mapping": fifth}, point.seed)
        assert metrics["gemm_slowdown_pct"] == IPHONE_15_PRO.gemm_layout_slowdown * 100.0
        assert metrics["gemm_slowdown_pct"] > 0.0
