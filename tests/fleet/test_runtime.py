"""FleetRuntime: the conservation law, failover, determinism, and
byte-identity of the single-device path with fleet code in the process."""

import random

import pytest

from repro.fleet.chaos import kill_schedule
from repro.fleet.runtime import (
    SHED_UNROUTABLE,
    TERMINAL_STATUSES,
    FleetConfig,
    FleetRuntime,
    build_fleet,
)
from repro.fleet.workloads import BURSTY_OVERLOAD, DIURNAL, shaped_workload
from repro.llm.datasets import ALPACA_LIKE
from repro.serving.workload import TenantSpec
from repro.telemetry import Telemetry


def _tenant(qps=20.0, mean_turns=2.0):
    return TenantSpec(
        name="chat", policy="facil", qps=qps, deadline_ms=2_000.0,
        mean_turns=mean_turns,
    )


def _run(n_devices=3, seed=0, kills=(), duration_ms=1_000.0, **cfg):
    config = FleetConfig(n_devices=n_devices, seed=seed, **cfg)
    requests = shaped_workload([_tenant()], duration_ms, shape=DIURNAL,
                              seed=seed)
    return FleetRuntime(config).run(requests, kills=kills), requests


def _kill_schedule(n, devices, gap_ms=100.0, seed=0):
    schedule, _ = kill_schedule(devices, n, gap_ms, seed)
    return schedule


class TestConfigValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="n_devices"):
            FleetConfig(n_devices=0)
        with pytest.raises(ValueError, match="standby_devices"):
            FleetConfig(n_devices=2, standby_devices=2)

    def test_build_fleet_is_heterogeneous(self):
        devices = build_fleet(FleetConfig(n_devices=4))
        platforms = {d.spec.platform.name for d in devices}
        assert len(platforms) == 4


class TestConservation:
    def test_every_request_reaches_one_terminal_outcome(self):
        report, requests = _run()
        assert report.none_lost
        assert report.offered == len(requests)
        assert {o.req_id for o in report.outcomes} == {
            r.req_id for r in requests
        }
        assert all(o.status in TERMINAL_STATUSES for o in report.outcomes)

    def test_conservation_holds_under_kills(self):
        kills = _kill_schedule(6, devices=3)
        report, requests = _run(kills=kills)
        assert report.kills == 6
        assert report.revives == 6
        assert report.none_lost
        assert report.offered == len(requests)
        assert report.audit_findings == []

    def test_accounting_identity(self):
        kills = _kill_schedule(4, devices=3)
        report, _ = _run(kills=kills)
        assert (
            report.served + report.shed + report.unserved == report.offered
        )

    def test_duplicate_req_id_is_an_input_error(self):
        """A duplicated id is refused up front, not reported as a
        request that was lost or counted twice."""
        requests = shaped_workload([_tenant()], 500.0, shape=DIURNAL, seed=0)
        requests.append(requests[0])
        with pytest.raises(ValueError, match=f"req_id {requests[0].req_id}"):
            FleetRuntime(FleetConfig(n_devices=2, seed=0)).run(requests)

    def test_none_lost_detects_a_missing_outcome(self):
        """none_lost must compare against the offered ids — dropping an
        outcome (a stranded request) fails the law even though the
        remaining outcomes are unique and terminal."""
        report, requests = _run()
        assert requests and report.none_lost
        assert report.offered_req_ids == sorted(r.req_id for r in requests)
        report.outcomes.pop()
        assert not report.none_lost


class TestKillScheduleValidation:
    """A malformed kill schedule is an input error, refused before any
    request is served."""

    def _runtime_and_requests(self):
        requests = shaped_workload([_tenant()], 500.0, shape=DIURNAL, seed=0)
        return FleetRuntime(FleetConfig(n_devices=2, seed=0)), requests

    def test_kill_on_a_device_outside_the_fleet(self):
        runtime, requests = self._runtime_and_requests()
        with pytest.raises(ValueError, match="device_id 7 is not in the fleet"):
            runtime.run(requests, kills=[(100e6, 0), (200e6, 7)])
        assert all(not d.outcomes for d in runtime.devices)

    @pytest.mark.parametrize("t_ns", [float("nan"), float("inf"), -float("inf")])
    def test_kill_at_a_non_finite_time(self, t_ns):
        runtime, requests = self._runtime_and_requests()
        with pytest.raises(ValueError, match="t_ns .* is not finite"):
            runtime.run(requests, kills=[(100e6, 0), (t_ns, 1)])
        assert all(not d.outcomes for d in runtime.devices)


class TestHealthQuarantine:
    def _faulty_fleet(self, n=2, seed=0, pim_fault_rate=0.75):
        """Devices whose PIM fault pressure crosses the quarantine
        watermark, with breakers held open-proof (huge min_observations)
        so the health window keeps filling."""
        from repro.fleet.device import DeviceSpec, FleetDevice
        from repro.platforms.specs import ALL_PLATFORMS
        from repro.serving.device import DeviceSettings

        return [
            FleetDevice(
                DeviceSpec(
                    device_id=i,
                    platform=ALL_PLATFORMS[i % len(ALL_PLATFORMS)],
                    settings=DeviceSettings(
                        pim_fault_rate=pim_fault_rate,
                        breaker_min_observations=10_000,
                        kv_blocks=64,
                    ),
                ),
                seed=seed,
            )
            for i in range(n)
        ]

    def test_health_quarantine_fails_over_queue_and_revives(self):
        """A device quarantined by sustained fault pressure (no kill
        event) must not strand its admitted queue: refugees fail over,
        every offered request still gets a terminal outcome, and the
        timed revive returns the device to rotation."""
        config = FleetConfig(n_devices=2, seed=0, recovery_ms=20.0,
                             pim_fault_rate=0.75)
        requests = shaped_workload([_tenant(qps=40.0)], 1_000.0,
                                  shape=DIURNAL, seed=0)
        runtime = FleetRuntime(config, devices=self._faulty_fleet())
        report = runtime.run(requests)
        assert report.health_quarantines > 0
        assert report.kills == 0
        assert report.revives > 0  # health quarantines revive on a timer
        assert report.none_lost
        assert {o.req_id for o in report.outcomes} == {
            r.req_id for r in requests
        }
        quarantined = [
            d for d in runtime.devices
            if any(b == "quarantined" for _, _, b in d.transitions)
        ]
        assert quarantined
        # the revive edge fired: quarantined devices re-entered ACTIVE
        for device in quarantined:
            assert ("quarantined", "active") in [
                (a, b) for _, a, b in device.transitions
            ]


class TestFailover:
    def test_kills_force_failover_placements(self):
        kills = _kill_schedule(6, devices=2, gap_ms=80.0)
        report, _ = _run(n_devices=2, kills=kills,
                         shed_policy="drop-oldest")
        assert report.failovers > 0
        failed_over = [o for o in report.outcomes if o.failovers]
        assert failed_over
        # a failed-over request that was served landed on a live device
        for outcome in failed_over:
            if outcome.served:
                assert outcome.device_id >= 0

    def test_dead_device_requests_not_lost(self):
        kills = [(5e6, 0)]  # kill device 0 early, mid-backlog
        report, requests = _run(n_devices=2, kills=kills,
                                duration_ms=500.0)
        assert report.none_lost
        assert report.offered == len(requests)

    def test_kills_skip_standby_spares(self):
        """A kill landing on a STANDBY spare is skipped — applying it
        would revive the spare into ACTIVE, recruiting standby capacity
        behind the autoscaler's back."""
        config = FleetConfig(n_devices=3, standby_devices=1, seed=0)
        requests = shaped_workload([_tenant()], 500.0, shape=DIURNAL,
                                  seed=0)
        # device 2 is the parked spare; schedule its loss mid-run
        report = FleetRuntime(config).run(requests, kills=[(5e6, 2)])
        assert report.kills == 0
        assert report.revives == 0
        spare = [d for d in report.devices if d["device_id"] == 2][0]
        assert spare["state"] == "standby"
        assert report.none_lost

    def test_requests_preempted_for_a_skipped_kill_fail_over(self):
        """dev2 pops the requests whose service would start after its
        kill at 2,902 ms and parks them for that kill, then drains into
        STANDBY at 2,780 ms, so the kill is skipped.  The parked
        requests still fail over at the kill's time; before, they waited
        for the end of the run and were shed there as unroutable."""
        config = FleetConfig(
            n_devices=4, standby_devices=1, seed=12, autoscale=True,
            autoscale_interval_ms=20.0, autoscale_low_backlog_ns=5e8,
            recovery_ms=50.0,
        )
        tenant = TenantSpec(
            name="chat", dataset=ALPACA_LIKE, policy="facil", qps=20.0,
            deadline_ms=1_000.0, mean_turns=3,
        )
        requests = shaped_workload(
            [tenant], 3_000.0, shape=BURSTY_OVERLOAD, seed=12
        )
        rng = random.Random(12)
        kills = sorted((rng.uniform(0, 3e9), rng.randrange(4)) for _ in range(40))
        report = FleetRuntime(config).run(requests, kills=kills)
        assert report.none_lost
        # only the end-of-run guard sheds a request on a device's behalf
        stranded = [
            o for o in report.outcomes
            if o.status == SHED_UNROUTABLE and o.device_id >= 0
        ]
        assert stranded == []
        assert (report.served, report.shed) == (29, 4)  # 25 and 13 stranded


class TestDeterminism:
    def test_same_seed_byte_identical_reports(self):
        kills = _kill_schedule(4, devices=3)
        a, _ = _run(kills=kills)
        b, _ = _run(kills=kills)
        assert a.to_json() == b.to_json()

    def test_different_seed_differs(self):
        a, _ = _run(seed=0)
        b, _ = _run(seed=1)
        assert a.to_json() != b.to_json()

    def test_telemetry_is_passive(self):
        kills = _kill_schedule(3, devices=3)
        plain, _ = _run(kills=kills)
        config = FleetConfig(n_devices=3, seed=0)
        requests = shaped_workload([_tenant()], 1_000.0, shape=DIURNAL,
                                  seed=0)
        telemetry = Telemetry()
        traced = FleetRuntime(config, telemetry=telemetry).run(
            requests, kills=kills
        )
        assert traced.to_json() == plain.to_json()

    def test_single_device_serving_unperturbed_by_fleet_run(self):
        """The fleet rides disjoint RNG streams: running a whole fleet
        (kills included) between two identical serving runs must leave
        the serving report byte-identical."""
        from repro.engine.policies import InferenceEngine
        from repro.platforms.specs import IPHONE_15_PRO
        from repro.serving import (
            ServingConfig,
            ServingRuntime,
            poisson_workload,
        )

        engine = InferenceEngine(IPHONE_15_PRO)
        tenant = TenantSpec(name="chat", policy="facil", qps=2.0,
                            deadline_ms=10_000.0)
        requests = poisson_workload([tenant], duration_ms=5_000.0, seed=0)

        def serve():
            return ServingRuntime(engine, ServingConfig(seed=0)).run(
                list(requests)
            )

        before = serve().to_json()
        _run(kills=_kill_schedule(4, devices=3))
        after = serve().to_json()
        assert before == after


class TestAutoscale:
    def test_autoscaler_recruits_standby_under_load(self):
        config = FleetConfig(
            n_devices=3, standby_devices=1, seed=0, autoscale=True,
            autoscale_high_backlog_ns=5e7, autoscale_low_backlog_ns=1e6,
            autoscale_interval_ms=20.0, autoscale_patience=2,
        )
        requests = shaped_workload(
            [_tenant(qps=80.0)], 2_000.0, seed=0
        )
        report = FleetRuntime(config).run(requests)
        assert report.autoscaler is not None
        assert report.none_lost
        # under sustained pressure the spare eventually joins
        assert report.autoscaler["scale_ups"] >= 1

    def test_autoscale_off_reports_none(self):
        report, _ = _run()
        assert report.autoscaler is None


class TestReportSurface:
    def test_render_mentions_every_device_lane(self):
        report, _ = _run()
        text = report.render()
        for lane in report.devices:
            assert f"dev{lane['device_id']}" in text

    def test_device_lanes_carry_breaker_snapshots(self):
        report, _ = _run()
        for lane in report.devices:
            assert set(lane["breakers"]) == {"pim", "mapping"}

    def test_to_dict_round_trips_through_json(self):
        import json

        report, _ = _run(kills=_kill_schedule(2, devices=3))
        assert json.loads(report.to_json())["none_lost"] is True


class TestAttributeBudget:
    """``FleetDevice`` keeps its instance attributes inline only while it
    has at most 29 (see its ``__init__``); past that every router,
    autoscaler and backlog read on a fleet event gets slower."""

    BUDGET = 29

    def test_fresh_devices_fit(self):
        for device in build_fleet(FleetConfig(n_devices=4, standby_devices=1)):
            assert len(vars(device)) <= self.BUDGET, sorted(vars(device))

    def test_devices_fit_after_kills_revives_and_autoscaling(self):
        config = FleetConfig(
            n_devices=3, standby_devices=1, seed=0, autoscale=True,
            autoscale_high_backlog_ns=5e7, autoscale_low_backlog_ns=1e6,
            autoscale_interval_ms=20.0,
        )
        runtime = FleetRuntime(config)
        requests = shaped_workload([_tenant(qps=80.0)], 1_000.0, seed=0)
        report = runtime.run(requests, kills=_kill_schedule(4, devices=2))
        assert report.kills and report.revives
        assert report.autoscaler is not None and report.autoscaler["scale_ups"]
        for device in runtime.devices:
            assert len(vars(device)) <= self.BUDGET, sorted(vars(device))
