"""FleetDevice: the health state machine, the kill/revive crash cycle,
and prefix residency — one device as an isolated failure domain."""

from dataclasses import replace

import pytest

from repro.fleet.device import (
    DEVICE_STATES,
    FLEET_DEVICE_SETTINGS,
    ROUTABLE_STATES,
    DeviceSpec,
    DeviceState,
    FleetDevice,
    Preempted,
)
from repro.kvcache.pool import KV_CRASH_SITES
from repro.platforms.specs import IPHONE_15_PRO
from repro.serving.device import DeviceSettings
from repro.serving.runtime import RequestOutcome

from tests.fleet.conftest import make_device, make_request


class TestSpecValidation:
    def test_rejects_negative_device_id(self):
        with pytest.raises(ValueError, match="device_id"):
            DeviceSpec(device_id=-1, platform=IPHONE_15_PRO)

    def test_rejects_inverted_health_watermarks(self):
        with pytest.raises(ValueError, match="degrade_fault_rate"):
            DeviceSpec(
                device_id=0, platform=IPHONE_15_PRO,
                degrade_fault_rate=0.8, quarantine_fault_rate=0.5,
            )

    def test_rejects_nonpositive_kv_blocks(self):
        with pytest.raises(ValueError, match="kv_blocks"):
            DeviceSpec(
                device_id=0, platform=IPHONE_15_PRO,
                settings=DeviceSettings(kv_blocks=0),
            )

    def test_name_embeds_identity(self):
        spec = DeviceSpec(device_id=3, platform=IPHONE_15_PRO)
        assert spec.name == "dev3/iphone-15-pro"

    def test_queue_core_and_pool_read_spec_settings(self, iphone_engine):
        settings = DeviceSettings(
            queue_capacity=3, shed_policy="degrade", degrade_watermark=2,
            degraded_decode_tokens=5, max_retries=1, base_backoff_ns=7.0,
            jitter=0.5, pim_fault_rate=0.1, mapping_fault_rate=0.2,
            soc_fault_rate=0.3, breaker_threshold=0.6,
            breaker_min_observations=9, brownout_high_ns=4e9,
            brownout_low_ns=2e9, kv_blocks=12, block_tokens=8,
            prefix_sharing=False,
        )
        device = make_device(iphone_engine, settings=settings)
        queue, core = device.queue, device.core
        assert (queue.capacity, queue.policy, queue.degrade_watermark) == (
            3, "degrade", 2
        )
        assert device.degraded_decode_tokens == 5
        assert (core.max_retries, core.base_backoff_ns, core.jitter) == (1, 7.0, 0.5)
        assert core.fault_rates == {"pim": 0.1, "mapping": 0.2, "soc": 0.3}
        for breaker in core.breakers.values():
            assert (breaker.fault_rate_threshold, breaker.min_observations) == (0.6, 9)
        assert (core.brownout.high_watermark_ns, core.brownout.low_watermark_ns) == (
            4e9, 2e9
        )
        assert (device.pool.num_blocks, device.pool.block_tokens) == (12, 8)
        # no prefix sharing: a served conversation keeps no residency
        device.offer(make_request(req_id=0, conversation_id=5), 0.0)
        assert device.serve_next().served
        assert device.resident_tokens(5) == 0 and device.pool.used == 0

    def test_default_settings_keep_a_kv_pool(self):
        spec = DeviceSpec(device_id=0, platform=IPHONE_15_PRO)
        assert spec.settings is FLEET_DEVICE_SETTINGS
        assert spec.settings == DeviceSettings(kv_blocks=64)


class TestHealthMachine:
    def _observe(self, device, component, faults, total):
        for i in range(total):
            if i < faults:
                device.monitor.record_fault(component)
            else:
                device.monitor.record_success(component)

    def test_states_registry_is_frozen(self):
        assert tuple(s.value for s in DEVICE_STATES) == (
            "active", "degraded", "quarantined", "draining", "standby"
        )
        assert all(s in DEVICE_STATES for s in ROUTABLE_STATES)

    def test_sustained_faults_degrade_then_quarantine(self, iphone_engine):
        device = make_device(iphone_engine)
        self._observe(device, "pim", faults=4, total=10)  # 40% >= 25%
        assert device.update_health(1.0) is DeviceState.DEGRADED
        self._observe(device, "pim", faults=30, total=30)
        assert device.update_health(2.0) is DeviceState.QUARANTINED
        assert not device.routable

    def test_recovery_returns_degraded_to_active(self, iphone_engine):
        device = make_device(iphone_engine)
        self._observe(device, "mapping", faults=4, total=10)
        assert device.update_health(1.0) is DeviceState.DEGRADED
        # window refills with successes, rate decays under the watermark
        self._observe(device, "mapping", faults=0, total=40)
        assert device.update_health(2.0) is DeviceState.ACTIVE

    def test_too_few_observations_never_degrade(self, iphone_engine):
        device = make_device(iphone_engine)
        self._observe(device, "pim", faults=3, total=3)  # 100% but n < 8
        assert device.update_health(1.0) is DeviceState.ACTIVE

    def test_admin_states_not_overridden_by_health(self, iphone_engine):
        device = make_device(iphone_engine)
        device.drain(1.0)
        self._observe(device, "pim", faults=20, total=20)
        assert device.update_health(2.0) is DeviceState.DRAINING

    def test_transitions_are_ledgered(self, iphone_engine):
        device = make_device(iphone_engine)
        self._observe(device, "pim", faults=4, total=10)
        device.update_health(5.0)
        assert device.transitions == [(5.0, "active", "degraded")]


class TestDrainLifecycle:
    def test_drain_stops_routing_but_keeps_serving(self, iphone_engine):
        device = make_device(iphone_engine)
        device.offer(make_request(req_id=0), 0.0)
        device.drain(1.0)
        assert not device.routable and device.serving
        result = device.serve_next()
        assert isinstance(result, RequestOutcome) and result.status == "served"

    def test_idle_drained_device_powers_down(self, iphone_engine):
        device = make_device(iphone_engine)
        device.drain(1.0)
        assert device.finish_drain_if_idle(2.0)
        assert device.state is DeviceState.STANDBY
        assert not device.serving

    def test_standby_drops_residency(self, iphone_engine):
        device = make_device(iphone_engine)
        device.offer(make_request(req_id=0, conversation_id=5), 0.0)
        device.serve_next()
        assert device.resident_tokens(5) > 0
        device.drain(1.0)
        device.finish_drain_if_idle(device.clock)
        assert device.resident_tokens(5) == 0
        assert device.pool.used == 0

    def test_activate_reenters_rotation(self, iphone_engine):
        device = make_device(iphone_engine)
        device.drain(1.0)
        device.finish_drain_if_idle(2.0)
        device.activate(3.0)
        assert device.state is DeviceState.ACTIVE and device.routable


class TestKillRevive:
    def test_kill_fires_a_kv_crash_site_and_audits_clean(self, iphone_engine):
        device = make_device(iphone_engine)
        device.offer(make_request(req_id=0, conversation_id=1), 0.0)
        device.serve_next()
        findings = device.kill(device.clock, kill_index=0)
        assert findings == 0
        assert device.kill_sites == [KV_CRASH_SITES[0]]
        assert device.state is DeviceState.QUARANTINED
        assert device.pool.used == 0
        assert device.audit_findings == []

    def test_kill_index_cycles_every_site(self, iphone_engine):
        device = make_device(iphone_engine)
        for index in range(len(KV_CRASH_SITES)):
            device.offer(
                make_request(req_id=index, conversation_id=index), device.clock
            )
            device.serve_next()
            device.kill(device.clock, kill_index=index)
            assert device.revive(device.clock + 1.0)
        assert device.kill_sites == list(KV_CRASH_SITES)
        assert device.audit_findings == []

    def test_revive_requires_quarantine(self, iphone_engine):
        device = make_device(iphone_engine)
        assert not device.revive(1.0)
        device.kill(1.0)
        assert device.revive(2.0)
        assert device.state is DeviceState.ACTIVE
        assert device.kills == 1 and device.revives == 1

    def test_kill_wipes_residency(self, iphone_engine):
        device = make_device(iphone_engine)
        device.offer(make_request(req_id=0, conversation_id=9), 0.0)
        device.serve_next()
        device.kill(device.clock)
        assert device.resident_tokens(9) == 0


class TestBacklogSignal:
    def test_backlog_counts_queued_unstarted_work(self, iphone_engine):
        """An idle timeline with a full queue is real load: backlog must
        weight queued-but-unstarted requests by the service estimate so
        the router and autoscaler do not see the device as empty."""
        device = make_device(iphone_engine)
        assert device.backlog_ns(0.0) == 0.0
        device.offer(make_request(req_id=0), 0.0)
        one = device.backlog_ns(0.0)
        assert one > 0.0
        device.offer(make_request(req_id=1), 0.0)
        assert device.backlog_ns(0.0) > one

    def test_service_estimate_tracks_observations(self, iphone_engine):
        device = make_device(iphone_engine)
        seeded = device._service_est_ns
        device.offer(make_request(req_id=0), 0.0)
        result = device.serve_next()
        observed = result.end_ns - result.wait_ns  # arrived at 0
        # the EWMA moved from the nominal seed toward the observation
        assert device._service_est_ns != seeded
        assert (
            min(seeded, observed)
            <= device._service_est_ns
            <= max(seeded, observed)
        )


class TestServePath:
    def test_prefix_residency_prices_followup_turns(self, iphone_engine):
        device = make_device(iphone_engine)
        device.offer(make_request(req_id=0, conversation_id=2,
                                  prefill_tokens=64), 0.0)
        device.serve_next()
        assert device.prefix_hits == 0 and device.prefill_tokens_saved == 0
        device.offer(
            make_request(req_id=1, conversation_id=2, prefill_tokens=96,
                         turn_index=1, context_tokens=64,
                         arrival_ns=device.clock),
            device.clock,
        )
        device.serve_next()
        assert device.prefix_hits == 1
        assert 0 < device.prefill_tokens_saved < 96

    def test_interrupt_before_start_preempts(self, iphone_engine):
        device = make_device(iphone_engine)
        request = make_request(req_id=0, arrival_ns=0.0)
        device.offer(request, 0.0)
        result = device.serve_next(interrupt_ns=0.0)
        assert isinstance(result, Preempted)
        assert result.request.req_id == 0
        assert len(device.queue) == 0

    @staticmethod
    def _followup_device(engine):
        """A device that served conversation 2's opening turn (so the
        follow-up is a prefix hit) with the follow-up at its queue head."""
        device = make_device(engine)
        device.offer(make_request(req_id=0, conversation_id=2,
                                  prefill_tokens=64), 0.0)
        device.serve_next()
        device.offer(
            make_request(req_id=1, conversation_id=2, prefill_tokens=96,
                         turn_index=1, context_tokens=64,
                         arrival_ns=device.clock),
            device.clock,
        )
        return device

    @staticmethod
    def _residency(device):
        return (
            {cid: (list(res.refs), res.tokens, res.last_use_ns)
             for cid, res in device.resident.items()},
            device.pool.used,
        )

    def _assert_burned_without_outcome(self, device, result, residency):
        assert isinstance(result, Preempted)
        assert result.request.req_id == 1
        assert len(device.queue) == 0  # the head was popped
        # no outcome for the preempted request (the loop keeps none)
        assert all(o.req_id != 1 for o in getattr(device, "outcomes", []))
        assert device.served == 1 and device.prefix_hits == 0
        assert self._residency(device) == residency

    @staticmethod
    def _twin_phases(engine):
        """Serve the follow-up on a twin device and return its start,
        prefill end (on the SoC timeline) and end (on the PIM one)."""
        twin = TestServePath._followup_device(engine)
        arrival = twin.queue.peek().arrival_ns
        outcome = twin.serve_next()
        assert isinstance(outcome, RequestOutcome) and twin.prefix_hits == 1
        assert arrival + outcome.ttft_ns == pytest.approx(twin.free["soc"])
        assert outcome.end_ns == twin.free["pim"]
        return twin, arrival + outcome.wait_ns, twin.free["soc"], twin.free["pim"]

    def test_interrupt_mid_prefill_preempts(self, iphone_engine):
        _, start, prefill_end, _ = self._twin_phases(iphone_engine)
        device = self._followup_device(iphone_engine)
        pim_before = device.free["pim"]
        residency = self._residency(device)
        result = device.serve_next(interrupt_ns=(start + prefill_end) / 2)
        self._assert_burned_without_outcome(device, result, residency)
        # the burned prefill stays on the SoC timeline; decode never ran
        assert device.free["soc"] == prefill_end
        assert device.free["pim"] == pim_before

    def test_interrupt_mid_decode_preempts(self, iphone_engine):
        twin, _, prefill_end, end = self._twin_phases(iphone_engine)
        device = self._followup_device(iphone_engine)
        residency = self._residency(device)
        result = device.serve_next(interrupt_ns=(prefill_end + end) / 2)
        self._assert_burned_without_outcome(device, result, residency)
        # prefill and the burned decode both stay on the timelines
        assert device.free == twin.free
        assert device.free["pim"] == end

    def test_served_outcome_is_conserved(self, iphone_engine):
        device = make_device(iphone_engine)
        device.offer(make_request(req_id=0), 0.0)
        result = device.serve_next()
        assert isinstance(result, RequestOutcome)
        assert result.status == "served" and result.device_id == 0
        assert device.outcomes == [result] and device.served == 1

    def test_summary_includes_breaker_snapshots(self, iphone_engine):
        device = make_device(iphone_engine)
        summary = device.summary()
        assert set(summary["breakers"]) == {"pim", "mapping"}
        for snap in summary["breakers"].values():
            assert snap["state"] == "closed" and snap["trips"] == 0


class TestDeterminism:
    def test_device_substreams_are_disjoint(self, iphone_engine):
        a = FleetDevice(
            DeviceSpec(device_id=0, platform=IPHONE_15_PRO),
            seed=7, engine=iphone_engine,
        )
        b = FleetDevice(
            DeviceSpec(device_id=1, platform=IPHONE_15_PRO),
            seed=7, engine=iphone_engine,
        )
        assert a.device_seed != b.device_seed
        assert a.injector.seed != b.injector.seed

    def test_same_seed_same_service_times(self, iphone_engine):
        def run():
            device = make_device(
                iphone_engine, seed=3,
                settings=replace(FLEET_DEVICE_SETTINGS, pim_fault_rate=0.2),
            )
            results = []
            for i in range(6):
                device.offer(make_request(req_id=i, arrival_ns=device.clock),
                             device.clock)
                results.append(device.serve_next())
            return results

        assert run() == run()
