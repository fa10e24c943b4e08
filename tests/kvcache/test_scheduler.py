"""KV-aware continuous batching through the serving runtime.

``ServingConfig.kv_blocks > 0`` runs :meth:`ServingRuntime.run` on
:class:`repro.kvcache.scheduler.KvServingLoop`; these tests exercise the
integration: bounded pools, prefix-sharing savings, determinism, and the
report plumbing.
"""

import pytest

from repro.serving.runtime import ServingConfig, ServingRuntime
from repro.serving.workload import TenantSpec, poisson_workload


def chat_tenant(**kw):
    defaults = dict(
        name="chat",
        policy="facil",
        qps=0.5,
        deadline_ms=60_000.0,
        mean_turns=3.0,
        think_time_ms=200.0,
    )
    defaults.update(kw)
    return TenantSpec(**defaults)


def run_kv(engine, requests, **config):
    defaults = dict(kv_blocks=256, queue_capacity=64)
    defaults.update(config)
    return ServingRuntime(engine, ServingConfig(**defaults)).run(requests)


@pytest.fixture(scope="module")
def multiturn_requests():
    return poisson_workload([chat_tenant()], duration_ms=20_000.0, seed=11)


class TestIntegration:
    def test_report_carries_kv_section(self, iphone_engine, multiturn_requests):
        report = run_kv(iphone_engine, multiturn_requests)
        assert report.kv is not None
        assert report.kv["num_blocks"] == 256
        assert report.kv["audit_failures"] == []
        assert report.to_dict()["kv"]["num_blocks"] == 256
        assert "kv pool" in report.render()

    def test_legacy_loop_when_kv_disabled(self, iphone_engine, multiturn_requests):
        report = run_kv(iphone_engine, multiturn_requests, kv_blocks=0)
        assert report.kv is None

    def test_every_request_gets_an_outcome(self, iphone_engine, multiturn_requests):
        report = run_kv(iphone_engine, multiturn_requests)
        assert report.offered == len(multiturn_requests)
        assert [o.req_id for o in report.outcomes] == [
            r.req_id for r in multiturn_requests
        ]

    def test_same_seed_same_report(self, iphone_engine, multiturn_requests):
        a = run_kv(iphone_engine, multiturn_requests)
        b = run_kv(iphone_engine, multiturn_requests)
        assert a.to_dict() == b.to_dict()


class TestPrefixSharing:
    def test_sharing_saves_prefill_tokens(self, iphone_engine, multiturn_requests):
        shared = run_kv(iphone_engine, multiturn_requests, prefix_sharing=True)
        cold = run_kv(iphone_engine, multiturn_requests, prefix_sharing=False)
        assert shared.kv["prefill_tokens_saved"] > 0
        assert cold.kv["prefill_tokens_saved"] == 0
        assert shared.kv["prefix_hit_rate"] > 0.0

    def test_sharing_reduces_total_ttft(self, iphone_engine, multiturn_requests):
        """The acceptance criterion: shared-prefix turns prefill only the
        new tokens, so cumulative TTFT drops on the same seed."""
        shared = run_kv(iphone_engine, multiturn_requests, prefix_sharing=True)
        cold = run_kv(iphone_engine, multiturn_requests, prefix_sharing=False)
        ttft = lambda rep: sum(
            o.ttft_ns for o in rep.outcomes if o.status.startswith("served")
        )
        assert shared.served >= cold.served
        assert ttft(shared) < ttft(cold)


class TestBoundedPool:
    def test_tiny_pool_bounds_occupancy(self, iphone_engine, multiturn_requests):
        """A pool far under demand preempts and evicts instead of
        overflowing; consistency survives the churn."""
        report = run_kv(iphone_engine, multiturn_requests, kv_blocks=24)
        kv = report.kv
        assert kv["occupancy_peak"] <= 24
        assert kv["evictions"] + kv["preemptions"] + kv["kv_clipped"] > 0
        assert kv["audit_failures"] == []
        assert report.offered == len(multiturn_requests)

    def test_oversized_request_rejected_up_front(self, iphone_engine):
        requests = poisson_workload(
            [chat_tenant(mean_turns=8.0, qps=1.0)], duration_ms=20_000.0, seed=3
        )
        # 8 blocks x 16 tokens = 128-token capacity; deep turns exceed it
        report = run_kv(iphone_engine, requests, kv_blocks=8)
        assert report.kv["kv_rejections"] > 0
        assert report.kv["occupancy_peak"] <= 8
        assert report.kv["audit_failures"] == []
