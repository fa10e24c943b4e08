"""Fleet-scale traffic shapes: diurnal Poisson mixtures and bursty overload.

Per-tenant arrivals stay Poisson (:mod:`repro.serving.workload`), but a
fleet serves *populations*, and population traffic is not stationary: it
breathes on a daily cycle and it spikes.  This module makes the shape a
first-class spec — an :class:`ArrivalShape` maps virtual time to a rate
multiplier, and :func:`shaped_workload` samples the resulting
**inhomogeneous** Poisson process by thinning (see
:func:`~repro.serving.workload.poisson_workload`): draw candidate
arrivals at the tenant's peak rate, keep each with probability
``multiplier(t) / peak``.  Thinning draws exactly one uniform per
candidate on the same single seeded stream as everything else, so one
seed still reproduces a whole fleet run byte-for-byte, and a
``SteadyShape`` (multiplier 1 everywhere) thins nothing away in
expectation.

Two canned shapes cover the autoscaler's design load:

* :data:`DIURNAL` — a raised-cosine day: traffic swings between
  ``floor`` (pre-dawn trough) and 1.0 (evening peak) over ``period_ms``.
  The autoscaler should track the swell — scale up into the peak, drain
  down the trough.
* :data:`BURSTY_OVERLOAD` — quiet baseline traffic with periodic
  ``burst_multiplier``× windows (a push notification landing on every
  device at once).  The admission queues shed, the autoscaler recruits
  standby devices, and goodput must degrade *gracefully*, not cliff.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.serving.workload import (
    ArrivalShape,
    Request,
    TenantSpec,
    poisson_workload,
)

__all__ = [
    "ArrivalShape",
    "BURSTY_OVERLOAD",
    "BurstyShape",
    "DIURNAL",
    "DiurnalShape",
    "SteadyShape",
    "shaped_workload",
]


@dataclass(frozen=True)
class SteadyShape:
    """Constant traffic: the homogeneous-Poisson baseline."""

    def rate_multiplier(self, t_ns: float) -> float:
        return 1.0


@dataclass(frozen=True)
class DiurnalShape:
    """Raised-cosine daily cycle between ``floor`` and 1.0.

    ``phase`` picks where in the cycle t=0 falls: 0.0 starts at the
    trough, 0.5 at the peak.
    """

    period_ms: float = 2_000.0
    floor: float = 0.2
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.period_ms <= 0:
            raise ValueError("period_ms must be positive")
        if not 0.0 <= self.floor <= 1.0:
            raise ValueError("floor must be in [0, 1]")
        if not 0.0 <= self.phase < 1.0:
            raise ValueError("phase must be in [0, 1)")

    def rate_multiplier(self, t_ns: float) -> float:
        cycles = t_ns / (self.period_ms * 1e6) + self.phase
        # raised cosine: trough at cycle 0, peak at cycle 0.5
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi * cycles))
        return self.floor + (1.0 - self.floor) * swing


@dataclass(frozen=True)
class BurstyShape:
    """Quiet baseline with periodic overload windows.

    The *peak* (multiplier 1.0) is the burst; baseline traffic runs at
    ``baseline = 1 / burst_multiplier`` so that tenant ``qps`` prices
    the burst itself — overload benches declare the worst case up front.
    """

    period_ms: float = 1_000.0
    burst_ms: float = 100.0
    burst_multiplier: float = 8.0

    def __post_init__(self) -> None:
        if self.period_ms <= 0 or self.burst_ms <= 0:
            raise ValueError("period_ms and burst_ms must be positive")
        if self.burst_ms >= self.period_ms:
            raise ValueError("burst_ms must be shorter than period_ms")
        if self.burst_multiplier <= 1.0:
            raise ValueError("burst_multiplier must exceed 1")

    def rate_multiplier(self, t_ns: float) -> float:
        into_period_ns = math.fmod(t_ns, self.period_ms * 1e6)
        if into_period_ns < self.burst_ms * 1e6:
            return 1.0
        return 1.0 / self.burst_multiplier


#: a "day" compressed to 2 virtual seconds: several full swells inside
#: one bench horizon without inflating runtime
DIURNAL = DiurnalShape(period_ms=2_000.0, floor=0.2)

#: 8x overload for 100 ms out of every second
BURSTY_OVERLOAD = BurstyShape(period_ms=1_000.0, burst_ms=100.0, burst_multiplier=8.0)


def shaped_workload(
    tenants: Sequence[TenantSpec],
    duration_ms: float,
    shape: Optional[ArrivalShape] = None,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> List[Request]:
    """Sample a merged multi-tenant stream under *shape* by thinning.

    :func:`repro.serving.workload.poisson_workload` with the shape
    defaulting to :class:`SteadyShape`: a homogeneous process at the
    tenant's full ``qps`` that still draws one thinning uniform per
    candidate, so its seeded streams differ from the unshaped sampler's.
    """
    return poisson_workload(
        tenants, duration_ms, seed=seed, rng=rng,
        shape=shape if shape is not None else SteadyShape(),
    )
