"""Health-gated simulated autoscaling over a fixed device catalog.

Simulation-native autoscaling: the fleet is built with its maximum
footprint up front (every device's engine and pool exist from t=0), and
the autoscaler moves members between the **standby pool** (STANDBY:
powered down, holds no KV) and rotation.  "Adding a device" is therefore
deterministic and instant apart from the activation timestamp — no
model-loading simulation is smuggled into the serving numbers.

Policy, evaluated on a fixed cadence:

* **Scale up** when mean backlog across routable devices has exceeded
  ``high_backlog_ns`` for ``patience`` consecutive evaluations and a
  STANDBY device exists.  *Health gate*: while more than
  ``max_quarantined_fraction`` of the fleet is QUARANTINED, scale-up is
  suppressed — backlog during a fault storm is a symptom, and recruiting
  spares into whatever is killing devices burns the standby pool without
  fixing latency (the storm also churns affinity, so new capacity mostly
  re-prefills).
* **Drain** the least-loaded ACTIVE device when mean backlog has stayed
  under ``low_backlog_ns`` for ``patience`` evaluations, floored at
  ``min_active`` routable members.  Draining devices finish their queue
  and power down (DRAINING -> STANDBY).

The high/low watermark gap plus patience is the same hysteresis idiom as
the brown-out controller: both edges damped, so diurnal swells produce a
clean up-peak/down-trough cycle instead of flapping at one threshold.

The fleet loop runs every tick before its next event in one
:meth:`Autoscaler.advance` call: between two fleet events no queue,
timeline, clock or service estimate moves, so the routable devices'
backlog terms are read once and again only after a tick that acted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.fleet.device import BacklogTerms, DeviceState, FleetDevice, backlog_at

__all__ = ["AutoscaleEvent", "Autoscaler"]


@dataclass(frozen=True)
class AutoscaleEvent:
    """One autoscaler decision, for the report ledger."""

    t_ns: float
    action: str  # "scale-up" | "drain" | "hold-unhealthy"
    device_id: int  # -1 for fleet-wide holds
    reason: str

    def to_dict(self) -> Dict:
        return {
            "t_ns": self.t_ns,
            "action": self.action,
            "device_id": self.device_id,
            "reason": self.reason,
        }


class Autoscaler:
    """Move devices between standby and rotation (module docstring)."""

    def __init__(
        self,
        devices: List[FleetDevice],
        interval_ms: float = 100.0,
        high_backlog_ns: float = 2e9,
        low_backlog_ns: float = 2e8,
        patience: int = 2,
        min_active: int = 1,
        max_quarantined_fraction: float = 0.5,
    ) -> None:
        if not devices:
            raise ValueError("an autoscaler needs at least one device")
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if not 0 <= low_backlog_ns < high_backlog_ns:
            raise ValueError("need 0 <= low_backlog_ns < high_backlog_ns")
        if patience <= 0:
            raise ValueError("patience must be positive")
        if min_active <= 0:
            raise ValueError("min_active must be positive")
        if not 0.0 < max_quarantined_fraction <= 1.0:
            raise ValueError("max_quarantined_fraction must be in (0, 1]")
        self.devices = devices
        self.interval_ns = interval_ms * 1e6
        self.high_backlog_ns = high_backlog_ns
        self.low_backlog_ns = low_backlog_ns
        self.patience = patience
        self.min_active = min_active
        self.max_quarantined_fraction = max_quarantined_fraction
        self._high_streak = 0
        self._low_streak = 0
        self.events: List[AutoscaleEvent] = []

    # -- signals ---------------------------------------------------------------

    def _backlog_terms(self) -> List[BacklogTerms]:
        """The routable devices' backlog terms, in catalog order."""
        return [d.backlog_terms() for d in self.devices if d.routable]

    def _quarantined_fraction(self) -> float:
        quarantined = sum(
            1 for d in self.devices if d.state is DeviceState.QUARANTINED
        )
        return quarantined / len(self.devices)

    def _standby(self) -> Optional[FleetDevice]:
        for dev in self.devices:  # catalog order: deterministic
            if dev.state is DeviceState.STANDBY:
                return dev
        return None

    def _drain_candidate(
        self, now_ns: float, n_routable: int
    ) -> Optional[FleetDevice]:
        active = [d for d in self.devices if d.state is DeviceState.ACTIVE]
        if n_routable <= self.min_active or not active:
            return None
        return min(
            active, key=lambda d: (d.backlog_ns(now_ns), d.spec.device_id)
        )

    # -- the decision ----------------------------------------------------------

    def evaluate(self, now_ns: float) -> List[AutoscaleEvent]:
        """One cadence tick; applies at most one action and returns the
        events it logged (possibly a ``hold-unhealthy`` marker)."""
        return self._decide(now_ns, self._backlog_terms())

    def advance(self, tick_ns: float, last_ns: float, before_ns: float) -> float:
        """Run every cadence tick from *tick_ns* on that is at most
        *last_ns* and earlier than *before_ns*; returns the next tick.

        The fleet loop passes its next arrival or service as *last_ns*
        and its next kill or revive as *before_ns*: a tick fires before
        an arrival or a service at the same instant, and after a kill or
        a revive.  No action moves those events (a STANDBY device has an
        empty queue, a DRAINING one still serves), and a DRAINING
        device's queue cannot empty before the next of them, so the
        finish-drain pass runs only on the first tick and on a tick
        that acted.  Each tick is :meth:`evaluate` followed by that
        pass, as one tick at a time would run it.
        """
        terms = self._backlog_terms()
        first = True
        while tick_ns <= last_ns and tick_ns < before_ns:
            fired = self._decide(tick_ns, terms)
            if first or fired:
                for device in self.devices:
                    device.finish_drain_if_idle(tick_ns)
            if fired:
                terms = self._backlog_terms()
            first = False
            tick_ns += self.interval_ns
        return tick_ns

    def _decide(
        self, now_ns: float, terms: List[BacklogTerms]
    ) -> List[AutoscaleEvent]:
        """:meth:`evaluate` on the routable devices' backlog *terms*."""
        if terms:
            backlog = sum([backlog_at(t, now_ns) for t in terms]) / len(terms)
        else:
            backlog = float("inf")  # everything is down: maximal pressure
        if backlog >= self.high_backlog_ns:
            self._high_streak += 1
            self._low_streak = 0
        elif backlog <= self.low_backlog_ns:
            self._low_streak += 1
            self._high_streak = 0
        else:
            self._high_streak = 0
            self._low_streak = 0

        fired: List[AutoscaleEvent] = []
        if self._high_streak >= self.patience:
            fraction = self._quarantined_fraction()
            if fraction > self.max_quarantined_fraction:
                event = AutoscaleEvent(
                    now_ns, "hold-unhealthy", -1,
                    f"{fraction:.0%} of fleet quarantined; backlog is a "
                    "fault symptom, not demand",
                )
                self.events.append(event)
                fired.append(event)
                self._high_streak = 0
                return fired
            spare = self._standby()
            if spare is not None:
                spare.activate(now_ns)
                event = AutoscaleEvent(
                    now_ns, "scale-up", spare.spec.device_id,
                    f"mean backlog {backlog / 1e6:.1f} ms >= "
                    f"{self.high_backlog_ns / 1e6:.1f} ms for "
                    f"{self.patience} evaluations",
                )
                self.events.append(event)
                fired.append(event)
            self._high_streak = 0
        elif self._low_streak >= self.patience:
            victim = self._drain_candidate(now_ns, len(terms))
            if victim is not None:
                victim.drain(now_ns)
                event = AutoscaleEvent(
                    now_ns, "drain", victim.spec.device_id,
                    f"mean backlog {backlog / 1e6:.1f} ms <= "
                    f"{self.low_backlog_ns / 1e6:.1f} ms for "
                    f"{self.patience} evaluations",
                )
                self.events.append(event)
                fired.append(event)
            self._low_streak = 0
        return fired

    def summary(self) -> Dict:
        return {
            "scale_ups": sum(1 for e in self.events if e.action == "scale-up"),
            "drains": sum(1 for e in self.events if e.action == "drain"),
            "holds_unhealthy": sum(
                1 for e in self.events if e.action == "hold-unhealthy"
            ),
            "events": [e.to_dict() for e in self.events],
        }
