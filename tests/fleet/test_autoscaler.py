"""Autoscaler: hysteresis, the standby pool, and the health gate."""

import random

import pytest

from repro.fleet.autoscaler import Autoscaler
from repro.fleet.device import DeviceState

from tests.fleet.conftest import make_device, make_request


def _fleet(engine, n=3, standby=1):
    devices = [make_device(engine, device_id=i) for i in range(n)]
    for dev in devices[n - standby:] if standby else []:
        dev._move(DeviceState.STANDBY, 0.0)
    return devices


def _load(device, backlog_ns):
    device.free = {k: v + backlog_ns for k, v in device.free.items()}


class TestValidation:
    def test_rejects_bad_watermarks(self, iphone_engine):
        with pytest.raises(ValueError, match="low_backlog_ns"):
            Autoscaler(_fleet(iphone_engine), high_backlog_ns=1e6,
                       low_backlog_ns=1e9)

    def test_rejects_nonpositive_patience(self, iphone_engine):
        with pytest.raises(ValueError, match="patience"):
            Autoscaler(_fleet(iphone_engine), patience=0)


class TestScaleUp:
    def test_sustained_high_backlog_recruits_standby(self, iphone_engine):
        devices = _fleet(iphone_engine, 3, standby=1)
        scaler = Autoscaler(devices, high_backlog_ns=1e9, patience=2)
        for dev in devices[:2]:
            _load(dev, 5e9)
        assert scaler.evaluate(1.0) == []  # patience not yet met
        events = scaler.evaluate(2.0)
        assert [e.action for e in events] == ["scale-up"]
        assert devices[2].state is DeviceState.ACTIVE

    def test_one_spike_does_not_scale(self, iphone_engine):
        devices = _fleet(iphone_engine, 3, standby=1)
        scaler = Autoscaler(devices, high_backlog_ns=1e9, patience=2)
        _load(devices[0], 10e9)
        scaler.evaluate(1.0)
        devices[0].free = {"soc": 0.0, "pim": 0.0}  # spike gone
        assert scaler.evaluate(2.0) == []
        assert devices[2].state is DeviceState.STANDBY

    def test_no_standby_means_no_event(self, iphone_engine):
        devices = _fleet(iphone_engine, 2, standby=0)
        scaler = Autoscaler(devices, high_backlog_ns=1e9, patience=1)
        _load(devices[0], 5e9)
        _load(devices[1], 5e9)
        assert scaler.evaluate(1.0) == []


class TestHealthGate:
    def test_quarantine_storm_holds_scale_up(self, iphone_engine):
        devices = _fleet(iphone_engine, 4, standby=1)
        for dev in devices[:2]:
            dev.kill(0.5)  # 2 of 4 quarantined = 50%... gate is > 0.4
        scaler = Autoscaler(
            devices, high_backlog_ns=1e9, patience=1,
            max_quarantined_fraction=0.4,
        )
        _load(devices[2], 5e9)
        events = scaler.evaluate(1.0)
        assert [e.action for e in events] == ["hold-unhealthy"]
        assert events[0].device_id == -1
        assert devices[3].state is DeviceState.STANDBY

    def test_healthy_fleet_passes_the_gate(self, iphone_engine):
        devices = _fleet(iphone_engine, 4, standby=1)
        scaler = Autoscaler(
            devices, high_backlog_ns=1e9, patience=1,
            max_quarantined_fraction=0.4,
        )
        for dev in devices[:3]:
            _load(dev, 5e9)
        events = scaler.evaluate(1.0)
        assert [e.action for e in events] == ["scale-up"]


class TestDrain:
    def test_sustained_low_backlog_drains_one(self, iphone_engine):
        devices = _fleet(iphone_engine, 3, standby=0)
        scaler = Autoscaler(
            devices, high_backlog_ns=1e9, low_backlog_ns=1e6, patience=2,
            min_active=1,
        )
        scaler.evaluate(1.0)
        events = scaler.evaluate(2.0)
        assert [e.action for e in events] == ["drain"]
        drained = [d for d in devices if d.state is DeviceState.DRAINING]
        assert len(drained) == 1

    def test_min_active_floor_holds(self, iphone_engine):
        devices = _fleet(iphone_engine, 2, standby=0)
        scaler = Autoscaler(
            devices, low_backlog_ns=1e6, patience=1, min_active=2,
        )
        assert scaler.evaluate(1.0) == []
        assert all(d.state is DeviceState.ACTIVE for d in devices)

    def test_drained_device_finishes_queue_then_powers_down(
        self, iphone_engine
    ):
        devices = _fleet(iphone_engine, 2, standby=0)
        victim = devices[1]
        victim.offer(make_request(req_id=0), 0.0)
        scaler = Autoscaler(
            devices, high_backlog_ns=1e13, low_backlog_ns=1e12,
            patience=1, min_active=1,
        )
        scaler.evaluate(1.0)
        # one of the two drained; the victim still serves its queue
        draining = [d for d in devices if d.state is DeviceState.DRAINING]
        assert len(draining) == 1
        drained = draining[0]
        while len(drained.queue):
            drained.serve_next()
        assert drained.finish_drain_if_idle(drained.clock)
        assert drained.state is DeviceState.STANDBY


class TestSummary:
    def test_summary_counts_actions(self, iphone_engine):
        devices = _fleet(iphone_engine, 3, standby=1)
        scaler = Autoscaler(devices, high_backlog_ns=1e9, patience=1)
        _load(devices[0], 5e9)
        _load(devices[1], 5e9)
        scaler.evaluate(1.0)
        summary = scaler.summary()
        assert summary["scale_ups"] == 1
        assert summary["drains"] == 0
        assert len(summary["events"]) == 1


class TestEmptyFleet:
    def test_no_devices_is_refused(self):
        with pytest.raises(ValueError, match="at least one device"):
            Autoscaler([])


INF = float("inf")
INTERVAL_NS = 100e6
SEEDS = range(60)


def _tick_by_tick(scaler, devices, tick_ns, last_ns, before_ns):
    """The reference for ``advance``: one tick at a time, each an
    ``evaluate`` followed by the finish-drain pass over every device."""
    while tick_ns <= last_ns and tick_ns < before_ns:
        scaler.evaluate(tick_ns)
        for device in devices:
            device.finish_drain_if_idle(tick_ns)
        tick_ns += scaler.interval_ns
    return tick_ns


def _busy(device, busy_until_ns, queued=0):
    """Hold *device*'s timelines until *busy_until_ns* and queue
    *queued* requests on it."""
    device.free = {"soc": busy_until_ns, "pim": busy_until_ns / 2}
    for index in range(queued):
        device.offer(make_request(req_id=100 * device.spec.device_id + index), 0.0)


# name -> (per-device (state, busy-until ns, queued), scaler kwargs,
# ticks); the busy horizons are a few ticks long, so the overhang falls
# through the watermarks inside one pass
NAMED_STATES = {
    "scale-up": (
        [("active", 9e8, 1), ("active", 6e8, 0), ("standby", 0.0, 0)],
        dict(high_backlog_ns=4e8, low_backlog_ns=1e8, patience=2),
        12,
    ),
    "drain-then-standby-same-tick": (
        [("active", 0.0, 0), ("active", 3e8, 1), ("draining", 5e8, 1)],
        dict(high_backlog_ns=1e13, low_backlog_ns=1e12, patience=2),
        8,
    ),
    "hold-unhealthy": (
        [("quarantined", 0.0, 0), ("quarantined", 0.0, 0),
         ("active", 2e9, 2), ("standby", 0.0, 0)],
        dict(high_backlog_ns=5e8, low_backlog_ns=1e8, patience=1,
             max_quarantined_fraction=0.4),
        6,
    ),
    "high-run-no-spare": (
        [("active", 4e9, 2), ("degraded", 4e9, 1)],
        dict(high_backlog_ns=1e9, low_backlog_ns=1e8, patience=2),
        9,
    ),
    "low-run-no-drain-candidate": (
        [("active", 0.0, 0), ("degraded", 0.0, 0), ("draining", 0.0, 2)],
        dict(high_backlog_ns=1e13, low_backlog_ns=1e12, patience=1,
             min_active=2),
        7,
    ),
}

def _named_fleet(engine, name):
    layout, kwargs, ticks = NAMED_STATES[name]
    devices = [make_device(engine, device_id=i) for i in range(len(layout))]
    for device, (state, busy_until_ns, queued) in zip(devices, layout):
        _busy(device, busy_until_ns, queued)
        device._move(DeviceState(state), 0.0)
    return devices, Autoscaler(devices, **kwargs), ticks


def _seeded_fleet(engine, seed):
    """A random fleet state: 2-5 devices in any state, busy horizons
    around the watermarks, mostly empty queues (one queued request
    weighs a nominal service, about 4.8 s here), random tuning."""
    rng = random.Random(seed)
    devices = [make_device(engine, device_id=i) for i in range(rng.randint(2, 5))]
    for device in devices:
        state = rng.choice(
            ["active"] * 3
            + ["degraded", "draining", "quarantined", "quarantined", "standby"]
        )
        if state != "standby":
            _busy(device, rng.choice([0.0, 1e8, 4e8, 1.5e9, 3e9, 6e9]),
                  rng.choice([0, 0, 0, 1]))
        device._move(DeviceState(state), 0.0)
    scaler = Autoscaler(
        devices,
        high_backlog_ns=rng.choice([1e9, 3e9, 6e9]),
        low_backlog_ns=rng.choice([1e8, 5e8, 9e8]),
        patience=rng.randint(1, 3),
        min_active=rng.randint(1, 2),
        max_quarantined_fraction=rng.choice([0.25, 0.5, 1.0]),
    )
    return devices, scaler, rng.randint(1, 30)


def _observed(scaler, devices, next_tick):
    return (
        [e.to_dict() for e in scaler.events],
        (scaler._high_streak, scaler._low_streak),
        [d.state for d in devices],
        [list(d.transitions) for d in devices],
        next_tick,
    )


def _both_ways(build, bounds):
    """Run one fleet state through the reference and through
    ``advance`` (each on its own copy); returns both observations."""
    seen = []
    for batched in (False, True):
        devices, scaler, ticks = build()
        last_ns, before_ns = bounds(ticks)
        if batched:
            next_tick = scaler.advance(INTERVAL_NS, last_ns, before_ns)
        else:
            next_tick = _tick_by_tick(scaler, devices, INTERVAL_NS, last_ns, before_ns)
        seen.append(_observed(scaler, devices, next_tick))
    return seen


class TestAdvanceMatchesTickByTick:
    """``advance`` against the one-tick-at-a-time reference: events,
    streaks, device states, transitions and the next tick time."""

    @pytest.mark.parametrize("name", sorted(NAMED_STATES))
    def test_named_state(self, iphone_engine, name):
        reference, batched = _both_ways(
            lambda: _named_fleet(iphone_engine, name),
            lambda ticks: (ticks * INTERVAL_NS, INF),
        )
        assert batched == reference

    def test_named_states_reach_their_branch(self, iphone_engine):
        def events(name):
            devices, scaler, ticks = _named_fleet(iphone_engine, name)
            scaler.advance(INTERVAL_NS, ticks * INTERVAL_NS, INF)
            return devices, [(e.action, e.device_id) for e in scaler.events]

        devices, fired = events("scale-up")
        assert fired == [("scale-up", 2)]
        devices, fired = events("drain-then-standby-same-tick")
        assert fired == [("drain", 0)]
        # drained and parked on the same tick; the draining device with
        # queued work stays DRAINING
        assert devices[0].transitions == [
            (2 * INTERVAL_NS, "active", "draining"),
            (2 * INTERVAL_NS, "draining", "standby"),
        ]
        assert devices[2].state is DeviceState.DRAINING
        devices, fired = events("hold-unhealthy")
        assert fired and set(fired) == {("hold-unhealthy", -1)}
        assert devices[3].state is DeviceState.STANDBY
        _, fired = events("high-run-no-spare")
        assert fired == []
        _, fired = events("low-run-no-drain-candidate")
        assert fired == []

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_state(self, iphone_engine, seed):
        def bounds(ticks):
            rng = random.Random(~seed)
            last_ns = ticks * INTERVAL_NS
            # the bounds land on a tick, between ticks, or are open
            return rng.choice([
                (last_ns, INF),
                (last_ns + INTERVAL_NS / 2, INF),
                (INF, last_ns),
                (last_ns, last_ns),
                (INF, last_ns + 1.0),
            ])

        reference, batched = _both_ways(
            lambda: _seeded_fleet(iphone_engine, seed), bounds
        )
        assert batched == reference

    def test_seeded_states_reach_every_action(self, iphone_engine):
        actions = set()
        for seed in SEEDS:
            devices, scaler, ticks = _seeded_fleet(iphone_engine, seed)
            scaler.advance(INTERVAL_NS, ticks * INTERVAL_NS, INF)
            actions.update(e.action for e in scaler.events)
        assert actions == {"scale-up", "drain", "hold-unhealthy"}

    def test_bounds_match_the_event_order(self, iphone_engine):
        """A tick at the last-event time fires (before an arrival or a
        service); a tick at the before time does not (after a kill or
        a revive)."""
        devices = [make_device(iphone_engine, device_id=0)]
        scaler = Autoscaler(devices)
        assert scaler.advance(INTERVAL_NS, 3 * INTERVAL_NS, INF) == 4 * INTERVAL_NS
        assert scaler.advance(INTERVAL_NS, INF, 3 * INTERVAL_NS) == 3 * INTERVAL_NS
        assert scaler.advance(INTERVAL_NS, 0.0, INF) == INTERVAL_NS
