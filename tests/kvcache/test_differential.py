"""End-to-end differential oracle for the incremental eviction index.

Each run happens twice on the same requests: once as shipped, and once
with ``PrefixTree.lru_leaf`` and ``KvCacheManager.pressure`` replaced by
the full-tree scans they superseded.  The report JSON must be
byte-identical, under enough KV pressure that eviction and preemption
both fire.
"""

import pytest

from repro.kvcache.manager import KvCacheManager
from repro.kvcache.prefix import PrefixTree
from repro.serving.runtime import ServingConfig, ServingRuntime
from repro.serving.workload import TenantSpec, poisson_workload
from repro.workloads import SpeculativeSpec

from tests.kvcache.test_prefix import reference_lru_leaf, reference_pressure


def _both_ways(monkeypatch, run):
    shipped = run()
    with monkeypatch.context() as m:
        m.setattr(PrefixTree, "lru_leaf", reference_lru_leaf)
        m.setattr(KvCacheManager, "pressure", reference_pressure)
        reference = run()
    return shipped, reference


class TestIndexMatchesScans:
    def test_multiturn_kv_serving_under_pressure(self, iphone_engine, monkeypatch):
        tenant = TenantSpec(
            name="chat", policy="facil", qps=2.0, deadline_ms=60_000.0,
            mean_turns=3.0, think_time_ms=200.0,
        )
        requests = poisson_workload([tenant], duration_ms=20_000.0, seed=11)
        config = ServingConfig(kv_blocks=48, queue_capacity=64)

        def run():
            return ServingRuntime(iphone_engine, config).run(requests)

        shipped, reference = _both_ways(monkeypatch, run)
        assert shipped.kv["evictions"] > 0
        assert shipped.kv["preemptions"] > 0
        assert shipped.kv["audit_failures"] == []
        assert shipped.to_json() == reference.to_json()

    @pytest.mark.parametrize("kv_blocks", [12, 24])
    def test_speculative_workload(self, iphone_engine, monkeypatch, kv_blocks):
        tenant = TenantSpec(name="chat", policy="facil", qps=6.0,
                            deadline_ms=120_000.0)
        requests = poisson_workload([tenant], duration_ms=1_500.0, seed=7)
        config = ServingConfig(seed=7, queue_capacity=64,
                               shed_policy="drop-oldest")

        def run():
            return ServingRuntime(
                iphone_engine, config, workload=SpeculativeSpec(kv_blocks=kv_blocks)
            ).run(requests)

        shipped, reference = _both_ways(monkeypatch, run)
        assert shipped.workload["audit_findings"] == 0
        assert shipped.to_json() == reference.to_json()
