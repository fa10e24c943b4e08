"""Kill-K chaos campaign: schedule discipline and the oracle battery.

Tier-1 runs a small campaign; the acceptance-scale 300-kill campaign is
``chaos``-marked (the nightly job runs it, and it also backs
BENCH_fleet.json).
"""

import random

import pytest

from repro.fleet.chaos import FleetChaosSpec, kill_schedule, run_fleet_chaos
from repro.kvcache.pool import KV_CRASH_SITES


class TestSpecValidation:
    def test_rejects_single_device(self):
        with pytest.raises(ValueError, match="2 devices"):
            FleetChaosSpec(n_devices=1)

    def test_rejects_cadence_tighter_than_recovery(self):
        with pytest.raises(ValueError, match="cadence"):
            FleetChaosSpec(n_devices=2, kill_gap_ms=10.0, recovery_ms=50.0)

    @pytest.mark.parametrize("kills", (0, 1, len(KV_CRASH_SITES) - 1))
    def test_rejects_fewer_kills_than_crash_sites(self, kills):
        """The oracle needs every KV crash site to fire, one site per
        kill in turn: fewer kills than sites could never pass it."""
        with pytest.raises(ValueError, match="kills must be at least"):
            FleetChaosSpec(kills=kills)
        FleetChaosSpec(kills=len(KV_CRASH_SITES))  # one kill per site will do

    def test_horizon_spans_the_kill_window(self):
        spec = FleetChaosSpec(kills=50, kill_gap_ms=20.0)
        assert spec.horizon_ms == pytest.approx(1_000.0)


def _schedule(spec, seed=None):
    return kill_schedule(
        spec.n_devices, spec.kills, spec.kill_gap_ms,
        spec.seed if seed is None else seed, spec.recovery_ms,
    )


class TestSchedule:
    def test_schedule_is_sorted_and_complete(self):
        spec = FleetChaosSpec(kills=40)
        schedule, _ = _schedule(spec, seed=1)
        assert len(schedule) == 40
        times = [t for t, _ in schedule]
        assert times == sorted(times)
        assert all(0 <= d < spec.n_devices for _, d in schedule)

    def test_round_robin_covers_every_device(self):
        spec = FleetChaosSpec(kills=40)
        schedule, _ = _schedule(spec, seed=1)
        assert {d for _, d in schedule} == set(range(spec.n_devices))

    def test_schedule_never_hits_a_recovering_device(self):
        spec = FleetChaosSpec(kills=60)
        schedule, _ = _schedule(spec, seed=2)
        down_until = [0.0] * spec.n_devices
        for t, device in schedule:
            assert down_until[device] <= t
            down_until[device] = t + spec.recovery_ms * 1e6

    def test_schedule_rides_its_own_stream(self):
        spec = FleetChaosSpec(kills=20, seed=5)
        a, _ = _schedule(spec)
        b, _ = _schedule(spec)
        assert a == b

    def test_all_down_retarget_lands_strictly_after_revive(self, monkeypatch):
        """The all-devices-down retarget path must schedule the kill
        strictly after the earliest revive: a kill at exactly a revive
        timestamp would depend on the runtime's tie-breaking to apply,
        and (before the fix) was skipped, breaking the all-kills-applied
        oracle.  A recovery dwell longer than the validated cadence
        bound, with every jitter draw pinned to its minimum, reaches the
        branch deterministically."""
        n_devices, recovery_ms = 2, 50.0

        class _MinJitter:
            """Pins every jitter draw to the [-0.5, 0.5) minimum."""

            def __init__(self, seed):
                pass

            def random(self):
                return 0.0

        monkeypatch.setattr("repro.fleet.chaos.random.Random", _MinJitter)
        schedule, retargeted = kill_schedule(
            n_devices, 4, 20.0, seed=0, recovery_ms=recovery_ms
        )
        assert retargeted > 0  # the all-down branch actually fired
        down = [0.0] * n_devices
        for t, device in schedule:
            assert down[device] < t  # strictly past any prior revive
            down[device] = t + recovery_ms * 1e6

    def test_no_recovery_dwell_is_the_plain_round_robin(self):
        """Without a dwell no device is ever down, so kill *i* lands on
        device ``i % n`` one jittered gap after the last: the schedule
        ``fleet --kills`` and ``bench_fleet`` run."""
        schedule, retargeted = kill_schedule(3, 30, 15.0, seed=1)
        assert retargeted == 0
        rng = random.Random(1 * 9973 + 65537)
        gap_ns, t, expected = 15.0 * 1e6, 15.0 * 1e6, []
        for index in range(30):
            t += gap_ns * (rng.random() - 0.5)
            expected.append((t, index % 3))
            t += gap_ns
        assert schedule == sorted(expected)


class TestSmallCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        return run_fleet_chaos(FleetChaosSpec(kills=24, seed=0))

    def test_every_oracle_passes(self, report):
        assert report.failures == []
        assert report.ok

    def test_all_kills_applied_and_revived(self, report):
        assert report.kills_applied == 24
        assert report.revives_applied == 24

    def test_every_kv_crash_site_fires(self, report):
        assert set(report.crashes_by_site) == set(KV_CRASH_SITES)
        assert all(n > 0 for n in report.crashes_by_site.values())

    def test_zero_audit_findings(self, report):
        assert report.audit_findings == []

    def test_requests_conserved_under_failover(self, report):
        assert report.fleet.none_lost
        assert report.offered == (
            report.served + report.shed + report.unserved
        )
        assert report.failover_requests > 0

    def test_to_dict_is_json_ready(self, report):
        import json

        d = json.loads(json.dumps(report.to_dict()))
        assert d["ok"] is True and d["kills_applied"] == 24


class TestVacuousCampaign:
    @pytest.mark.parametrize("seed, offered", ((0, 0), (5, 7)))
    def test_campaign_without_a_failover_fails(self, seed, offered):
        """Four kills over an 80 ms horizon: no traffic at seed 0, and
        at seed 5 none of it on a device when it is lost."""
        report = run_fleet_chaos(FleetChaosSpec(kills=4, seed=seed))
        assert report.offered == offered and report.failover_requests == 0
        assert not report.ok
        assert report.failures == [
            f"no request failed over ({offered} offered): the campaign's "
            f"oracles checked nothing across a device loss"
        ]


@pytest.mark.chaos
class TestAcceptanceCampaign:
    def test_300_kills_zero_findings(self):
        report = run_fleet_chaos(FleetChaosSpec(kills=300, seed=0))
        assert report.failures == []
        assert report.kills_applied == 300
        assert report.audit_findings == []
        assert report.fleet.none_lost
        # round-robin across 4 devices cycling 4 sites: exact quarters
        assert report.crashes_by_site == {
            site: 75 for site in KV_CRASH_SITES
        }
