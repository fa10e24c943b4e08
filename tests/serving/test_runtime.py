"""Serving runtime: determinism, deadlines, shedding, faults, fallbacks."""

from dataclasses import fields

import pytest

from repro.fleet.device import DeviceSpec
from repro.serving.device import DeviceSettings
from repro.serving.runtime import (
    RequestOutcome,
    ServingConfig,
    ServingRuntime,
    conservation_findings,
    sustainable_qps,
)
from repro.serving.workload import TenantSpec, poisson_workload
from repro.workloads.runtime import WorkloadLoop

from tests.serving.conftest import make_request


def run(engine, requests, **config):
    return ServingRuntime(engine, ServingConfig(**config)).run(requests)


class TestConfigValidation:
    def test_rejects_bad_jitter(self):
        with pytest.raises(ValueError, match="jitter"):
            ServingConfig(jitter=1.0)

    def test_rejects_bad_fault_rate(self):
        with pytest.raises(ValueError, match="fault rates"):
            ServingConfig(pim_fault_rate=1.5)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            ServingConfig(max_retries=-1)

    @pytest.mark.parametrize("record", (DeviceSettings, ServingConfig))
    @pytest.mark.parametrize("field, value, words", (
        ("degraded_decode_tokens", 0, "degraded_decode_tokens must be positive"),
        ("kv_blocks", -1, "kv_blocks must be >= 0"),
        ("block_tokens", 0, "block_tokens must be positive"),
    ))
    def test_device_settings_checks(self, record, field, value, words):
        with pytest.raises(ValueError, match=words):
            record(**{field: value})


class TestOneSettingsRecord:
    """A device's settings are declared once, on DeviceSettings: a
    ServingConfig is one, and a fleet DeviceSpec holds one."""

    def test_each_setting_is_declared_once(self):
        settings = {f.name for f in fields(DeviceSettings)}
        assert len(settings) == 17
        assert issubclass(ServingConfig, DeviceSettings)
        serving = {f.name for f in fields(ServingConfig)}
        assert serving - settings == {"seed", "adaptive"}
        spec = {f.name for f in fields(DeviceSpec)}
        assert not spec & settings
        assert spec == {
            "device_id", "platform", "settings", "degrade_fault_rate",
            "quarantine_fault_rate", "health_min_observations",
        }
        assert len(settings) + len(serving - settings) + len(spec) == 25

    def test_runtime_passes_the_adaptive_record_through(self, iphone_engine):
        from repro.adaptive import AdaptiveConfig

        adaptive = AdaptiveConfig(mode="static", window_requests=7, pinned_map_id=2)
        runtime = ServingRuntime(iphone_engine, ServingConfig(adaptive=adaptive))
        assert runtime.adaptive.config is adaptive
        assert ServingRuntime(iphone_engine, ServingConfig()).adaptive is None


class TestConservation:
    def test_duplicate_req_id_is_an_input_error(self, iphone_engine):
        """A duplicated id cannot reach its own outcome: the run refuses
        it up front instead of serving it twice."""
        requests = [make_request(req_id=i, arrival_ns=i * 1e9) for i in range(9)]
        requests.append(make_request(req_id=4, arrival_ns=20e9))
        with pytest.raises(ValueError, match="req_id 4"):
            run(iphone_engine, requests)

    def test_a_loop_that_loses_an_outcome_raises(self, iphone_engine):
        class LosingLoop(WorkloadLoop):
            def record(self, request, status, **fields):
                outcome = super().record(request, status, **fields)
                if request.req_id == 2:
                    self.outcomes.pop()
                return outcome

        requests = [make_request(req_id=i, arrival_ns=i * 1e9) for i in range(5)]
        loop = LosingLoop(ServingRuntime(iphone_engine, ServingConfig()))
        with pytest.raises(RuntimeError, match=r"silently lost \(e.g. req 2\)"):
            loop.run(requests)

    def test_findings_name_every_breach(self):
        def outcome(req_id, status="served"):
            return RequestOutcome(req_id, "chat", status, "facil")

        assert conservation_findings([0, 1], [outcome(0), outcome(1)]) == []
        findings = conservation_findings(
            [0, 1, 2], [outcome(0), outcome(0), outcome(3, "queued")]
        )
        assert findings == [
            "a request reached two terminal outcomes",
            "2 request(s) silently lost (e.g. req 1)",
            "1 outcome(s) for requests never offered",
            "1 outcome(s) with a non-terminal status (e.g. req 3: 'queued')",
        ]


class TestHappyPath:
    def test_single_request_is_served(self, iphone_engine):
        report = run(iphone_engine, [make_request()])
        assert report.served == 1
        assert report.unserved == 0
        outcome = report.outcomes[0]
        assert outcome.status == "served"
        assert 0 < outcome.ttft_ns < outcome.ttlt_ns
        assert outcome.ttft_ns <= 10_000e6  # met its TTFT budget
        assert report.ok

    def test_fifo_order_without_contention(self, iphone_engine):
        requests = [
            make_request(req_id=i, arrival_ns=i * 60e9) for i in range(3)
        ]
        report = run(iphone_engine, requests)
        assert report.served == 3
        # spaced a minute apart: nobody waits
        assert all(o.wait_ns == 0.0 for o in report.outcomes)

    def test_report_dict_is_json_ready(self, iphone_engine):
        report = run(iphone_engine, [make_request()])
        d = report.to_dict()
        assert d["offered"] == 1 and d["ok"] is True
        assert "ttft" in d and "queue" in d and "breakers" in d
        report.to_json()  # must not raise
        assert "SLO attainment" in report.render()


class TestDeterminism:
    def test_same_seed_same_report(self, iphone_engine, tenant):
        requests = poisson_workload([tenant], duration_ms=20_000.0, seed=5)
        config = dict(seed=5, pim_fault_rate=0.1, jitter=0.2)
        a = run(iphone_engine, requests, **config)
        b = run(iphone_engine, requests, **config)
        assert a.to_json() == b.to_json()


class TestDeadlines:
    def test_hopeless_wait_times_out_at_admission_boundary(self, iphone_engine):
        # two giant prefills back to back with a tiny TTFT budget: the
        # second can never start in time and must be shed untouched
        requests = [
            make_request(req_id=0, arrival_ns=0.0, prefill_tokens=256,
                         deadline_ns=1e18),
            make_request(req_id=1, arrival_ns=1.0, prefill_tokens=256,
                         deadline_ns=1.0),
        ]
        report = run(iphone_engine, requests)
        statuses = {o.req_id: o.status for o in report.outcomes}
        assert statuses[0] == "served"
        assert statuses[1] == "timed-out"
        late = next(o for o in report.outcomes if o.req_id == 1)
        assert late.ttft_ns == 0.0  # never reached prefill

    def test_prefill_longer_than_budget_stops_before_decode(self, iphone_engine):
        report = run(iphone_engine, [make_request(deadline_ns=1.0)])
        outcome = report.outcomes[0]
        assert outcome.status == "timed-out"
        assert outcome.ttft_ns > 0.0  # prefill ran, first token was late
        assert outcome.ttlt_ns == 0.0  # decode never ran
        assert report.unserved == 1 and not report.ok


class TestShedding:
    def _overload(self, n=40):
        # all arrive at once with generous deadlines: queue pressure only
        return [
            make_request(req_id=i, arrival_ns=float(i), deadline_ns=1e18)
            for i in range(n)
        ]

    def test_reject_bounds_queue(self, iphone_engine):
        report = run(iphone_engine, self._overload(), queue_capacity=4,
                     shed_policy="reject")
        assert report.queue_stats.peak_occupancy <= 4
        assert report.rejected > 0
        assert report.offered == 40

    def test_drop_oldest_evicts(self, iphone_engine):
        report = run(iphone_engine, self._overload(), queue_capacity=4,
                     shed_policy="drop-oldest")
        assert report.dropped > 0
        assert report.queue_stats.peak_occupancy <= 4

    def test_degrade_clips_decode_budget(self, iphone_engine):
        report = run(iphone_engine, self._overload(), queue_capacity=8,
                     shed_policy="degrade", degraded_decode_tokens=2)
        degraded = [o for o in report.outcomes if o.status == "served-degraded"]
        assert degraded
        assert all(o.decode_tokens_served <= 2 for o in degraded)
        full = [o for o in report.outcomes if o.status == "served"]
        assert all(o.decode_tokens_served == 8 for o in full)

    def test_statuses_partition_offered(self, iphone_engine):
        report = run(iphone_engine, self._overload(), queue_capacity=4,
                     shed_policy="drop-oldest")
        total = (report.served + report.rejected + report.dropped
                 + report.timed_out + report.aborted)
        assert total == report.offered


class TestFaultsAndBreakers:
    def test_persistent_faults_abort_after_max_retries(self, iphone_engine):
        report = run(iphone_engine, [make_request()], pim_fault_rate=0.99,
                     max_retries=2, seed=0)
        outcome = report.outcomes[0]
        assert outcome.status == "aborted"
        assert outcome.retries == 2
        # exact deterministic exponential total: base * (2^2 - 1)
        assert outcome.backoff_ns == pytest.approx(
            ServingConfig().base_backoff_ns * 3
        )

    def test_fault_rate_trips_pim_breaker(self, iphone_engine, tenant):
        requests = poisson_workload([tenant], duration_ms=30_000.0, seed=1)
        report = run(iphone_engine, requests, pim_fault_rate=0.4,
                     breaker_threshold=0.3, seed=1)
        transitions = report.breaker_transitions["pim"]
        assert any(a == "closed" and b == "open" for _, a, b in transitions)
        # once open, facil traffic routes around the pim path
        assert any("pim breaker open" in f
                   for o in report.outcomes for f in o.fallbacks)

    def test_mapping_breaker_downgrades_facil(self, iphone_engine):
        runtime = ServingRuntime(iphone_engine, ServingConfig())
        # wound the mapping path directly, then route one facil request
        for _ in range(8):
            runtime.core.mapping_breaker.record_failure(0.0)
        assert not runtime.core.mapping_breaker.allow(0.0)
        route = runtime.core.route(make_request(), now_ns=0.0, pim_backlog_ns=0.0)
        assert route.policy == "hybrid-static"
        assert any("mapping breaker open" in f for f in route.fallbacks)


class TestSustainableQps:
    def test_positive_and_deterministic(self, iphone_engine, tenant):
        a = sustainable_qps(iphone_engine, tenant, n=50, seed=0)
        b = sustainable_qps(iphone_engine, tenant, n=50, seed=0)
        assert a == b > 0.0

    def test_rejects_nonpositive_n(self, iphone_engine, tenant):
        with pytest.raises(ValueError, match="n must be positive"):
            sustainable_qps(iphone_engine, tenant, n=0)

    def test_overload_sheds_but_underload_serves(self, iphone_engine, tenant):
        capacity = sustainable_qps(iphone_engine, tenant, n=50, seed=0)
        calm = TenantSpec(name="chat", policy="facil", qps=capacity * 0.3,
                          deadline_ms=10_000.0)
        requests = poisson_workload([calm], duration_ms=30_000.0, seed=2)
        report = run(iphone_engine, requests, queue_capacity=8, seed=2)
        assert report.unserved == 0
        assert report.slo_attainment > 0.9

        storm = TenantSpec(name="chat", policy="facil", qps=capacity * 2.0,
                           deadline_ms=10_000.0)
        storm_requests = poisson_workload([storm], duration_ms=30_000.0, seed=2)
        storm_report = run(iphone_engine, storm_requests, queue_capacity=8,
                           seed=2)
        assert storm_report.shed_rate > 0.1
        assert storm_report.queue_stats.peak_occupancy <= 8
