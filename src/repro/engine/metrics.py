"""Latency metrics: TTFT, TTLT, and aggregation helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence

__all__ = ["LatencyStats", "QueryLatency", "geomean", "percentile", "speedup"]


@dataclass(frozen=True)
class QueryLatency:
    """Latency of one query under one execution policy.

    ``ttft_ns`` — time to first token (prefill, plus any re-layout).
    ``ttlt_ns`` — time to last token (TTFT + all decode steps).
    ``breakdown`` — named components (ns); keys depend on the policy.
    """

    policy: str
    prefill_tokens: int
    decode_tokens: int
    ttft_ns: float
    ttlt_ns: float
    breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def ttft_ms(self) -> float:
        return self.ttft_ns / 1e6

    @property
    def ttlt_ms(self) -> float:
        return self.ttlt_ns / 1e6

    @property
    def decode_ns(self) -> float:
        return self.ttlt_ns - self.ttft_ns


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (matches ``numpy.percentile``'s
    default method) without requiring an array."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return float(ordered[lower])
    frac = rank - lower
    return float(ordered[lower] * (1.0 - frac) + ordered[upper] * frac)


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics of one latency population (serving reports)."""

    count: int
    mean_ns: float
    p50_ns: float
    p99_ns: float
    max_ns: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencyStats":
        if not values:
            return cls(count=0, mean_ns=0.0, p50_ns=0.0, p99_ns=0.0, max_ns=0.0)
        return cls(
            count=len(values),
            mean_ns=sum(values) / len(values),
            p50_ns=percentile(values, 50.0),
            p99_ns=percentile(values, 99.0),
            max_ns=float(max(values)),
        )

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_ms": self.mean_ns / 1e6,
            "p50_ms": self.p50_ns / 1e6,
            "p99_ms": self.p99_ns / 1e6,
            "max_ms": self.max_ns / 1e6,
        }


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregation for speedups)."""
    values = list(values)
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedup(baseline_ns: float, improved_ns: float) -> float:
    """How many times faster *improved* is than *baseline*."""
    if improved_ns <= 0:
        raise ValueError("improved latency must be positive")
    return baseline_ns / improved_ns
