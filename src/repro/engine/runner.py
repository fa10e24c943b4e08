"""Sweep runners: the experiment loops behind every figure/table.

Each function mirrors one evaluation axis of the paper:

* :func:`ttft_speedup_sweep` — Fig. 13 (TTFT vs prefill length);
* :func:`ttlt_speedup_grid` — Fig. 14 (TTLT vs prefill:decode ratio);
* :func:`dataset_eval` — Figs. 15/16 (sampled length traces, all four
  policies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.engine.metrics import QueryLatency, geomean, speedup
from repro.engine.policies import POLICIES, InferenceEngine
from repro.llm.datasets import DatasetSpec, sample_trace

__all__ = [
    "SweepPoint",
    "DatasetResult",
    "ttft_speedup_sweep",
    "ttlt_speedup_grid",
    "dataset_eval",
]


@dataclass(frozen=True)
class SweepPoint:
    """One (prefill, decode) configuration's result pair."""

    prefill: int
    decode: int
    baseline: QueryLatency
    facil: QueryLatency

    @property
    def ttft_speedup(self) -> float:
        return speedup(self.baseline.ttft_ns, self.facil.ttft_ns)

    @property
    def ttlt_speedup(self) -> float:
        return speedup(self.baseline.ttlt_ns, self.facil.ttlt_ns)


def ttft_speedup_sweep(
    engine: InferenceEngine,
    prefill_lengths: Sequence[int] = (8, 16, 32, 64, 128),
    decode_len: int = 64,
    baseline_policy: str = "hybrid-static",
) -> List[SweepPoint]:
    """TTFT speedup of FACIL over the baseline across prefill lengths
    (Fig. 13; FACIL without dynamic offload, as in the single-query
    evaluation)."""
    points = []
    for prefill in prefill_lengths:
        base = engine.run_query(baseline_policy, prefill, decode_len)
        facil = engine.run_query("facil", prefill, decode_len, dynamic_offload=False)
        points.append(SweepPoint(prefill, decode_len, base, facil))
    return points


def ttlt_speedup_grid(
    engine: InferenceEngine,
    prefill_lengths: Sequence[int] = (16, 32, 64, 128),
    decode_lengths: Sequence[int] = (16, 32, 64, 128, 256),
    baseline_policy: str = "hybrid-static",
) -> List[SweepPoint]:
    """TTLT speedup across the prefill x decode grid (Fig. 14)."""
    points = []
    for prefill in prefill_lengths:
        for decode in decode_lengths:
            base = engine.run_query(baseline_policy, prefill, decode)
            facil = engine.run_query("facil", prefill, decode, dynamic_offload=False)
            points.append(SweepPoint(prefill, decode, base, facil))
    return points


@dataclass(frozen=True)
class DatasetResult:
    """Per-query latencies of every policy over one sampled trace."""

    dataset: str
    platform: str
    n_queries: int
    ttft_ns: Dict[str, List[float]]
    ttlt_ns: Dict[str, List[float]]

    def mean_ttft_ns(self, policy: str) -> float:
        if self.n_queries <= 0:
            raise ValueError("result holds no queries; trace was empty")
        return sum(self.ttft_ns[policy]) / self.n_queries

    def mean_ttlt_ns(self, policy: str) -> float:
        if self.n_queries <= 0:
            raise ValueError("result holds no queries; trace was empty")
        return sum(self.ttlt_ns[policy]) / self.n_queries

    def ttft_speedup_over(self, baseline: str, policy: str = "facil") -> float:
        """Geomean of per-query TTFT speedups (the paper's aggregation)."""
        return geomean(
            b / f for b, f in zip(self.ttft_ns[baseline], self.ttft_ns[policy])
        )

    def ttlt_speedup_over(self, baseline: str, policy: str = "facil") -> float:
        return geomean(
            b / f for b, f in zip(self.ttlt_ns[baseline], self.ttlt_ns[policy])
        )


def dataset_eval(
    engine: InferenceEngine,
    dataset: DatasetSpec,
    n_queries: int = 100,
    seed: int = 0,
    policies: Sequence[str] = ("soc-only", "hybrid-static", "hybrid-dynamic", "facil"),
) -> DatasetResult:
    """Run every policy over a sampled length trace (Figs. 15/16).

    FACIL runs with dynamic offload enabled, matching the paper's dataset
    experiments.

    Raises:
        ValueError: for a non-positive query count, an empty policy list,
            an unknown policy, or an empty sampled trace — all of which
            would otherwise surface as a ZeroDivisionError or KeyError
            deep inside the aggregation.
    """
    if n_queries <= 0:
        raise ValueError(f"n_queries must be positive, got {n_queries}")
    if not policies:
        raise ValueError("policies must not be empty")
    unknown = [p for p in policies if p not in POLICIES]
    if unknown:
        raise ValueError(f"unknown policies {unknown}; known: {POLICIES}")
    trace = sample_trace(dataset, n_queries, seed)
    if not trace:
        raise ValueError(
            f"dataset {dataset.name!r} sampled an empty trace for "
            f"n_queries={n_queries}"
        )
    ttft: Dict[str, List[float]] = {p: [] for p in policies}
    ttlt: Dict[str, List[float]] = {p: [] for p in policies}
    for query in trace:
        for policy in policies:
            result = engine.run_query(
                policy, query.prefill_tokens, query.decode_tokens
            )
            ttft[policy].append(result.ttft_ns)
            ttlt[policy].append(result.ttlt_ns)
    return DatasetResult(
        dataset=dataset.name,
        platform=engine.platform.name,
        n_queries=len(trace),
        ttft_ns=ttft,
        ttlt_ns=ttlt,
    )
