"""Telemetry end to end on the serving stack: byte-identical results
with tracing on, 5-layer span coverage on both serving loops, and the
report-to-registry fold."""

import pytest

from repro.analysis.tracelint import lint_spans
from repro.engine.policies import InferenceEngine
from repro.platforms.specs import IPHONE_15_PRO
from repro.serving.runtime import ServingConfig, ServingRuntime
from repro.serving.workload import TenantSpec, poisson_workload
from repro.telemetry import Telemetry
from repro.telemetry.tracer import LAYERS


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(IPHONE_15_PRO)


@pytest.fixture(scope="module")
def requests():
    tenant = TenantSpec(
        name="chat", policy="facil", qps=8.0, deadline_ms=10_000.0
    )
    return poisson_workload([tenant], duration_ms=3_000.0, seed=0)


def _config(kv_blocks):
    return ServingConfig(
        seed=0,
        queue_capacity=16,
        shed_policy="drop-oldest",
        kv_blocks=kv_blocks,
        block_tokens=16,
    )


@pytest.mark.parametrize("kv_blocks", [0, 256], ids=["legacy", "kv"])
class TestPerturbationFreedom:
    def test_report_identical_with_telemetry_on(
        self, engine, requests, kv_blocks
    ):
        # telemetry consumes no randomness and advances no clocks, so
        # the simulated outcome must be byte-identical either way
        off = ServingRuntime(engine, _config(kv_blocks)).run(requests)
        telemetry = Telemetry(sample_every=1)
        on = ServingRuntime(
            engine, _config(kv_blocks), telemetry=telemetry
        ).run(requests)
        assert on.to_json() == off.to_json()


@pytest.mark.parametrize("kv_blocks", [0, 256], ids=["legacy", "kv"])
class TestSpanCoverage:
    def _run(self, engine, requests, kv_blocks):
        telemetry = Telemetry(sample_every=1)
        report = ServingRuntime(
            engine, _config(kv_blocks), telemetry=telemetry
        ).run(requests)
        return telemetry, report

    def test_all_five_layers_covered(self, engine, requests, kv_blocks):
        telemetry, report = self._run(engine, requests, kv_blocks)
        counts = telemetry.tracer.spans_by_layer()
        for layer in LAYERS:
            if layer == "workload":
                continue
            assert counts[layer] > 0, f"no {layer!r} spans"
        # the workload lane belongs to repro.workloads loops; a chat run
        # must leave it empty
        assert counts["workload"] == 0
        # one root span per offered request plus the probe intervals
        roots = [
            s for s in telemetry.tracer.spans
            if s.parent_id is None and s.name == "request"
        ]
        assert len(roots) == report.offered

    def test_span_tree_lints_clean(self, engine, requests, kv_blocks):
        telemetry, _ = self._run(engine, requests, kv_blocks)
        spans = [s.to_dict() for s in telemetry.tracer.spans]
        findings = lint_spans(spans)
        assert findings == [], [f.render() for f in findings]

    def test_metrics_folded_from_report(self, engine, requests, kv_blocks):
        telemetry, report = self._run(engine, requests, kv_blocks)
        m = telemetry.metrics
        assert m.counter(
            "serving_requests_total", labelnames=("status",)
        ).total() == report.offered
        assert m.get("serving_goodput_qps").value() == report.goodput_qps
        assert m.get("serving_ttlt_ns").count() == report.served
        # the DRAM probe grounds row-hit / conflict counters
        assert m.get("dram_row_hits_total") is not None
        assert m.get("controller_translations_total") is not None
        if kv_blocks:
            assert m.get("kv_manager_stat") is not None


class TestSampling:
    def test_sampling_thins_traces_not_metrics(self, engine, requests):
        dense = Telemetry(sample_every=1)
        ServingRuntime(engine, _config(0), telemetry=dense).run(requests)
        sparse = Telemetry(sample_every=4)
        ServingRuntime(engine, _config(0), telemetry=sparse).run(requests)
        assert (
            sparse.tracer.traces_sampled < dense.tracer.traces_sampled
        )
        # metrics are never sampled: both registries agree on counts
        assert sparse.metrics.counter(
            "serving_requests_total", labelnames=("status",)
        ).total() == dense.metrics.counter(
            "serving_requests_total", labelnames=("status",)
        ).total()


class TestWrite:
    def test_write_both_artifacts(self, engine, requests, tmp_path):
        import json

        telemetry = Telemetry(sample_every=2)
        ServingRuntime(engine, _config(256), telemetry=telemetry).run(requests)
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        telemetry.write(str(trace_path), str(metrics_path))
        trace = json.loads(trace_path.read_text())
        assert {e["cat"] for e in trace["traceEvents"] if e.get("ph") == "X"} \
            == set(LAYERS) - {"workload"}
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["schema_version"] == 1


def _phase_resources(runtime, requests):
    """The ``resource`` of every prefill and decode span of one run."""
    runtime.run(requests)
    return {
        (span.name, span.args.get("resource"))
        for span in runtime.telemetry.tracer.spans
        if span.name in ("prefill", "decode")
    }


class TestPhaseSpansNameTheUnit:
    """Every loop's prefill and decode spans say which unit ran the
    phase (``soc`` or ``pim``), never the policy that chose it."""

    @pytest.mark.parametrize("kv_blocks", [0, 256, 12], ids=["chat", "kv", "kv-tight"])
    def test_chat_and_paged_kv(self, engine, kv_blocks):
        # a soc-only tenant beside facil puts SoC decodes next to PIM
        # decodes (batched rounds with paged KV)
        tenants = [
            TenantSpec(name=policy, policy=policy, qps=qps,
                       deadline_ms=15_000.0, mean_turns=3.0,
                       think_time_ms=500.0)
            for policy, qps in (("facil", 2.0), ("soc-only", 1.0))
        ]
        requests = poisson_workload(tenants, duration_ms=10_000.0, seed=7)
        runtime = ServingRuntime(
            engine, _config(kv_blocks), telemetry=Telemetry(sample_every=1)
        )
        resources = _phase_resources(runtime, requests)
        assert {name for name, _ in resources} == {"prefill", "decode"}
        assert {unit for _, unit in resources} <= {"soc", "pim"}
        assert ("decode", "soc") in resources and ("decode", "pim") in resources

    @pytest.mark.parametrize("workload", ["speculative", "moe", "coresident"])
    def test_workload_loops(self, workload):
        from repro.platforms.specs import JETSON_ORIN
        from repro.workloads import (
            CoResidencySpec,
            ExpertPlacementSpec,
            SpeculativeSpec,
        )

        spec = {
            "speculative": SpeculativeSpec(),
            "moe": ExpertPlacementSpec(expert_rows=1024, expert_cols=1024),
            "coresident": CoResidencySpec(),
        }[workload]
        tenants = [TenantSpec(name="chat", policy="facil", qps=20.0,
                              deadline_ms=120_000.0)]
        if workload == "coresident":
            tenants.append(TenantSpec(name="secondary", policy="facil",
                                      qps=20.0, deadline_ms=120_000.0))
        requests = poisson_workload(tenants, duration_ms=1_000.0, seed=7)
        runtime = ServingRuntime(
            InferenceEngine(JETSON_ORIN), ServingConfig(seed=7),
            telemetry=Telemetry(sample_every=1), workload=spec,
        )
        resources = _phase_resources(runtime, requests)
        assert {name for name, _ in resources} == {"prefill", "decode"}
        assert {unit for _, unit in resources} <= {"soc", "pim"}
