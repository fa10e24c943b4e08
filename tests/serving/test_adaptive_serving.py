"""End-to-end adaptive remapping through the serving runtime.

One drifting trace (short prefills becoming long mid-run), four runs
computed once and shared: ``off`` (no controller at all), ``static``
(controller watches, never migrates), ``active`` (canary → promote),
and ``pinned`` (the forced-bad-advisor drill: recommendation pinned to
the pessimal MapID 0 — the canary must catch it and roll back live,
inside the serving loop).
"""

import pytest

from repro.adaptive import AdaptiveConfig
from repro.serving.runtime import ServingConfig, ServingRuntime

from tests.serving.conftest import make_request


def drifting_requests(n=160, gap_ns=2000e6):
    """First third short-prefill chat (ideal MapID 3 — the selector's
    static pick), the rest long-context (ideal MapID 5)."""
    return [
        make_request(
            req_id=i,
            arrival_ns=i * gap_ns,
            prefill_tokens=1024 if i < n // 3 else 4096,
            decode_tokens=8,
            deadline_ns=60_000e6,
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def reports(iphone_engine):
    requests = drifting_requests()

    def run(mode, **kw):
        adaptive = AdaptiveConfig(
            mode=mode, window_requests=16, canary_window=8,
            cooldown_requests=16, **kw
        )
        config = ServingConfig(adaptive=adaptive, seed=7)
        return ServingRuntime(iphone_engine, config).run(requests)

    return {
        "off": ServingRuntime(iphone_engine, ServingConfig(seed=7)).run(requests),
        "static": run("static"),
        "active": run("active"),
        "pinned": run("active", pinned_map_id=0, slo_margin=0.02),
    }


class TestModes:
    def test_off_mode_has_no_adaptive_section(self, reports):
        assert reports["off"].adaptive is None
        assert '"adaptive": null' in reports["off"].to_json()

    def test_static_mode_watches_but_never_migrates(self, reports):
        adaptive = reports["static"].adaptive
        assert adaptive["mode"] == "static"
        assert adaptive["migrations_started"] == 0
        assert adaptive["page_map_ids"] == [3, 3, 3, 3]
        assert adaptive["last_recommendation"] == 5

    def test_active_mode_promotes_to_the_drifted_map_id(self, reports):
        adaptive = reports["active"].adaptive
        assert adaptive["promotions"] >= 1
        assert adaptive["rollbacks"] == 0
        assert adaptive["page_map_ids"] == [5, 5, 5, 5]
        assert adaptive["audit_findings"] == 0
        kinds = [e["kind"] for e in adaptive["events"]]
        assert kinds[:2] == ["canary", "promote"]

    def test_active_beats_static_on_the_drifting_trace(self, reports):
        active, static = reports["active"], reports["static"]
        assert active.served >= static.served
        assert active.ttft.p99_ns <= static.ttft.p99_ns

    def test_pinned_bad_advisor_rolls_back_live(self, reports):
        adaptive = reports["pinned"].adaptive
        assert adaptive["rollbacks"] >= 1
        assert adaptive["promotions"] == 0
        # rollback restored the arena MapIDs byte for byte — on the
        # real arena, inside a serving run
        assert adaptive["page_map_ids"] == [3, 3, 3, 3]
        assert adaptive["audit_findings"] == 0

    def test_report_renders_adaptive_block(self, reports):
        rendered = reports["active"].render()
        assert "adaptive" in rendered
        assert "promoted" in rendered


class TestNoRegret:
    def test_off_and_static_serve_identically_before_drift(self, iphone_engine):
        """Pre-drift (matched workload, zero penalty) the controller
        must be a pure observer: outcomes identical to adaptive off."""
        requests = drifting_requests(n=60)[:20]  # short-prefill slice
        off = ServingRuntime(iphone_engine, ServingConfig(seed=3)).run(requests)
        active = ServingRuntime(
            iphone_engine, ServingConfig(seed=3, adaptive=AdaptiveConfig())
        ).run(requests)
        assert active.adaptive["migrations_started"] == 0
        d_off, d_active = off.to_dict(), active.to_dict()
        d_off.pop("adaptive")
        d_active.pop("adaptive")
        assert d_active == d_off


class TestConfigGuards:
    def test_adaptive_requires_legacy_scheduler(self):
        with pytest.raises(ValueError, match="whole-request loop"):
            ServingConfig(adaptive=AdaptiveConfig(), kv_blocks=64)

    def test_unknown_adaptive_mode_rejected(self):
        with pytest.raises(ValueError, match="adaptive"):
            ServingConfig(adaptive="shadow")
