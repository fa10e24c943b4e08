"""Health state machine and ResilientEngine fallback chains."""

import pytest

from repro.reliability.degrade import (
    Health,
    HealthMonitor,
    ResilientEngine,
)


class TestHealthMonitor:
    def test_one_fault_degrades(self):
        monitor = HealthMonitor()
        assert monitor.health("pim") is Health.HEALTHY
        assert monitor.record_fault("pim") is Health.DEGRADED

    def test_consecutive_faults_fail(self):
        monitor = HealthMonitor(fail_after=3)
        for _ in range(2):
            monitor.record_fault("pim")
        assert monitor.health("pim") is Health.DEGRADED
        assert monitor.record_fault("pim") is Health.FAILED

    def test_successes_recover_a_degraded_component(self):
        monitor = HealthMonitor(recover_after=3)
        monitor.record_fault("mapping")
        for _ in range(2):
            assert monitor.record_success("mapping") is Health.DEGRADED
        assert monitor.record_success("mapping") is Health.HEALTHY

    def test_interleaved_faults_reset_the_recovery_count(self):
        monitor = HealthMonitor(fail_after=3, recover_after=2)
        monitor.record_fault("pim")
        monitor.record_success("pim")
        monitor.record_fault("pim")  # not consecutive with the first
        assert monitor.health("pim") is Health.DEGRADED

    def test_failed_is_sticky_until_reset(self):
        monitor = HealthMonitor()
        monitor.record_fault("pim", permanent=True)
        for _ in range(10):
            monitor.record_success("pim")
        assert monitor.health("pim") is Health.FAILED
        monitor.reset("pim")
        assert monitor.health("pim") is Health.HEALTHY

    def test_transitions_are_recorded(self):
        monitor = HealthMonitor(fail_after=2)
        monitor.record_fault("pim")
        monitor.record_fault("pim")
        assert monitor.transitions("pim") == [
            (Health.HEALTHY, Health.DEGRADED),
            (Health.DEGRADED, Health.FAILED),
        ]

    def test_validates_thresholds(self):
        with pytest.raises(ValueError):
            HealthMonitor(degrade_after=0)
        with pytest.raises(ValueError):
            HealthMonitor(degrade_after=5, fail_after=3)


class TestResilientEngine:
    def test_healthy_query_matches_plain_engine(self, iphone_engine):
        resilient = ResilientEngine(iphone_engine)
        result = resilient.run_query("facil", 32, 8)
        plain = iphone_engine.run_query("facil", 32, 8)
        assert result.served
        assert result.effective_policy == "facil"
        assert result.fallbacks == ()
        assert result.ttlt_ns == plain.ttlt_ns
        assert result.degradation_ns == 0.0

    def test_unknown_policy_rejected(self, iphone_engine):
        with pytest.raises(ValueError, match="unknown policy"):
            ResilientEngine(iphone_engine).run_query("bogus", 32, 8)

    def test_mapping_failure_falls_back_to_hybrid_static(self, iphone_engine):
        resilient = ResilientEngine(iphone_engine)
        resilient.note_fault(ResilientEngine.MAPPING, permanent=True)
        result = resilient.run_query("facil", 32, 8)
        assert result.served
        assert result.effective_policy == "hybrid-static"
        assert any("hybrid-static" in f for f in result.fallbacks)
        # The static baseline pays the re-layout FACIL avoids.
        assert "relayout" in result.latency.breakdown
        assert result.degradation_ns > 0

    def test_pim_failure_routes_decode_to_soc(self, iphone_engine):
        resilient = ResilientEngine(iphone_engine)
        resilient.note_fault(ResilientEngine.PIM, permanent=True)
        result = resilient.run_query("facil", 32, 8)
        assert result.served
        assert "decode_soc" in result.latency.breakdown
        assert "decode_pim" not in result.latency.breakdown
        assert any("soc-decode" in f for f in result.fallbacks)
        assert result.degradation_ns > 0

    def test_soc_only_never_needs_pim(self, iphone_engine):
        resilient = ResilientEngine(iphone_engine)
        resilient.note_fault(ResilientEngine.PIM, permanent=True)
        result = resilient.run_query("soc-only", 32, 8)
        assert result.served
        assert result.fallbacks == ()
        assert result.degradation_ns == 0.0

    def test_full_availability_under_pim_failure(self, iphone_engine):
        # The acceptance bar: 100% of queries served under a
        # single-component (PIM) failure, with degradation reported.
        resilient = ResilientEngine(iphone_engine)
        resilient.note_fault(ResilientEngine.PIM, permanent=True)
        results = [
            resilient.run_query("facil", prefill, 8)
            for prefill in (8, 16, 32, 64, 128)
        ]
        assert all(r.served for r in results)
        assert all(r.degradation_ns > 0 for r in results)

    def test_transient_faults_cost_bounded_retries(self, iphone_engine):
        resilient = ResilientEngine(iphone_engine, max_retries=3)
        clean = resilient.run_query("facil", 32, 8)
        faulty = resilient.run_query("facil", 32, 8, transient_faults=2)
        assert faulty.served
        assert faulty.retries == 2
        # Exponential backoff: base * (1 + 2).
        assert faulty.backoff_ns == resilient.base_backoff_ns * 3
        assert faulty.ttlt_ns > clean.ttlt_ns
        assert "retry" in faulty.latency.breakdown

    def test_negative_transient_faults_rejected(self, iphone_engine):
        with pytest.raises(ValueError, match="transient_faults"):
            ResilientEngine(iphone_engine).run_query("facil", 32, 8, transient_faults=-2)

    def test_too_many_faults_abort(self, iphone_engine):
        resilient = ResilientEngine(iphone_engine, max_retries=3)
        result = resilient.run_query("facil", 32, 8, transient_faults=4)
        assert not result.served

    def test_service_recovers_a_degraded_pim(self, iphone_engine):
        resilient = ResilientEngine(iphone_engine)
        resilient.note_fault(ResilientEngine.PIM)  # transient: degraded
        assert resilient.monitor.health(ResilientEngine.PIM) is Health.DEGRADED
        for _ in range(resilient.monitor.recover_after):
            resilient.run_query("facil", 32, 8)
        assert resilient.monitor.health(ResilientEngine.PIM) is Health.HEALTHY
