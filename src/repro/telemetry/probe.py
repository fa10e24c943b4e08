"""DRAM micro-probe: grounds telemetry in the timing simulator.

A traced serving run cannot afford to replay every weight byte through
the transfer-level DRAM simulator (the analytical engine models exist
precisely to avoid that), but spans for the controller/DRAM layers and
the advisor's counters still need *grounded* numbers.  The probe bridges
the two at run start:

* it streams a bounded, representative sample of the model's weight
  matrices (smallest / median / largest linear spec) through a real
  :class:`~repro.core.controller.MemoryController` and
  :class:`~repro.dram.system.DramTimingSimulator` under the mappings
  ``select_mapping`` chooses, publishing bank-conflict / row-hit /
  bus-utilization counters to the metrics registry;
* it re-translates the same pages under the conventional mapping — the
  SoC side of a hybrid relayout — so per-page MapID-mux switch counters
  are exercised with real translations;
* it feeds the same streams to the :class:`MappingAdvisor` and
  cross-checks every probed tensor against the static selector,
  appending any disagreement findings to the telemetry bundle;
* it emits ``probe.*`` spans (controller + DRAM layers) and returns a
  :class:`ProbeCalibration` whose per-byte DRAM time and utilization
  fractions let the serving loop attach calibrated controller / DRAM /
  KV child spans to sampled queries without re-simulating them.

The probe runs entirely on its own controller, simulator, and advisor
state: it never touches the serving run's RNG, queues, or timelines,
so simulated results are byte-identical with telemetry on or off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.controller import CONVENTIONAL_MAP_ID, MemoryController
from repro.core.selector import build_selected_mapping, select_mapping
from repro.dram.system import DramTimingSimulator, requests_from_fields
from repro.llm.layers import linear_specs
from repro.telemetry.advisor import MappingAdvisor, observe_matrix

__all__ = ["ProbeCalibration", "run_probe"]


@dataclass(frozen=True)
class ProbeCalibration:
    """What the probe learned; consumed by per-query span emission."""

    #: simulated DRAM service time per byte under the selected layouts
    dram_ns_per_byte: float
    #: fraction of the probe drain the data bus was busy
    bus_utilization: float
    row_hit_rate: float
    weight_bytes: int
    kv_bytes_per_token: float
    advisor_agreement: float
    probed_tensors: Tuple[str, ...]

    def dram_fraction(self) -> float:
        """Fraction of a phase's duration to attribute to DRAM service."""
        return max(min(self.bus_utilization, 1.0), 0.0)

    def kv_fraction(self, context_tokens: int) -> float:
        """KV-read share of decode traffic at a given context length."""
        kv_bytes = context_tokens * self.kv_bytes_per_token
        total = kv_bytes + self.weight_bytes
        return kv_bytes / total if total > 0 else 0.0


def _probe_specs(engine) -> List:
    """Distinct linear shapes, smallest / median / largest by footprint."""
    by_shape: Dict[Tuple[int, int], object] = {}
    for spec in linear_specs(engine.model):
        by_shape.setdefault((spec.out_features, spec.in_features), spec)
    ordered = sorted(
        by_shape.values(), key=lambda s: s.out_features * s.in_features
    )
    if len(ordered) <= 3:
        return ordered
    return [ordered[0], ordered[len(ordered) // 2], ordered[-1]]


def _stream_for(matrix, org, pim, max_transfers: int):
    """(pas, groups) covering whole sampled rows, like the advisor's."""
    lda = max(matrix.padded_row_bytes, pim.chunk_row_bytes)
    transfer = org.transfer_bytes
    transfers_per_row = lda // transfer
    max_rows = max(1, max_transfers // transfers_per_row)
    n_rows = min(matrix.rows, max_rows)
    row_idx = np.arange(n_rows, dtype=np.int64) * matrix.rows // n_rows
    pas = (
        row_idx[:, None] * lda
        + np.arange(transfers_per_row, dtype=np.int64)[None, :] * transfer
    ).ravel()
    groups = np.repeat(row_idx, transfers_per_row)
    return pas, groups


def run_probe(
    engine,
    telemetry,
    max_transfers_per_spec: int = 2048,
) -> ProbeCalibration:
    """Run the micro-probe for *engine*, publishing into *telemetry*."""
    platform = engine.platform
    org = platform.dram.org
    pim = platform.pim
    page = engine.huge_page_bytes
    registry = telemetry.metrics
    tracer = telemetry.tracer

    controller = MemoryController(org, page_bytes=page)
    controller.attach_metrics(registry)
    advisor = MappingAdvisor(org, pim, page, metrics=registry, min_samples=64)
    sim = DramTimingSimulator(platform.dram)

    total_bytes = 0
    total_ns = 0.0
    bus_busy_ns = 0.0
    bus_window_ns = 0.0
    row_hits = row_misses = row_conflicts = 0
    agreements = checks = 0
    probed: List[str] = []
    cursor_ns = 0.0

    for spec in _probe_specs(engine):
        matrix = spec.matrix_config()
        try:
            select_mapping(matrix, org, pim, page)
            mapping = build_selected_mapping(matrix, org, pim, page)
        except ValueError:
            continue
        map_id = controller.table.register(mapping)
        pas, groups = _stream_for(matrix, org, pim, max_transfers_per_spec)

        fields = controller.translate_array(pas, map_id=map_id)
        result = sim.run(requests_from_fields(fields))
        # the SoC side of a hybrid relayout touches the same pages under
        # the conventional mapping: exercises the per-page MapID mux
        controller.translate_array(pas, map_id=CONVENTIONAL_MAP_ID)

        n_bytes = int(pas.size) * org.transfer_bytes
        total_bytes += n_bytes
        total_ns += result.total_ns
        row_hits += result.row_hits
        row_misses += result.row_misses
        row_conflicts += result.row_conflicts
        channels_used = max(len(result.per_channel), 1)
        bus_busy_ns += sum(
            s.bus_busy_ns for s in result.per_channel.values()
        )
        bus_window_ns += result.total_ns * channels_used
        for channel, stats in sorted(result.per_channel.items()):
            labels = {"channel": str(channel)}
            registry.counter(
                "dram_reads_total", "column reads issued",
                labelnames=("channel",),
            ).inc(stats.reads, **labels)
            registry.counter(
                "dram_writes_total", "column writes issued",
                labelnames=("channel",),
            ).inc(stats.writes, **labels)
            registry.counter(
                "dram_row_hits_total", "row-buffer hits",
                labelnames=("channel",),
            ).inc(stats.row_hits, **labels)
            registry.counter(
                "dram_row_misses_total", "row-buffer misses (bank idle)",
                labelnames=("channel",),
            ).inc(stats.row_misses, **labels)
            registry.counter(
                "dram_row_conflicts_total",
                "bank conflicts (wrong row open)",
                labelnames=("channel",),
            ).inc(stats.row_conflicts, **labels)

        tensor = f"{platform.name}/{spec.name}"
        observe_matrix(advisor, tensor, matrix, max_rows=128)
        verdict = advisor.cross_check(tensor, matrix)
        checks += 1
        agreements += int(verdict.agrees)
        if verdict.finding is not None:
            telemetry.findings.append(verdict.finding)
        probed.append(tensor)

        root = tracer.record(
            0,
            f"probe.{spec.name}",
            "controller",
            cursor_ns,
            cursor_ns + result.total_ns,
            map_id=map_id,
            bytes=n_bytes,
        )
        if root is not None:
            root.record(
                "probe.dram.drain",
                "dram",
                cursor_ns,
                cursor_ns + result.total_ns,
                row_hit_rate=result.row_hit_rate,
                bandwidth_gbps=result.bandwidth_gbps,
            )
        cursor_ns += result.total_ns

    controller.finalize_metrics()
    row_total = row_hits + row_misses + row_conflicts
    agreement = agreements / checks if checks else 1.0
    calibration = ProbeCalibration(
        dram_ns_per_byte=total_ns / total_bytes if total_bytes else 0.0,
        bus_utilization=(
            bus_busy_ns / bus_window_ns if bus_window_ns else 0.0
        ),
        row_hit_rate=row_hits / row_total if row_total else 0.0,
        weight_bytes=int(engine.model.weight_bytes()),
        kv_bytes_per_token=float(engine.model.kv_cache_bytes_per_token),
        advisor_agreement=agreement,
        probed_tensors=tuple(probed),
    )
    registry.gauge(
        "probe_dram_ns_per_byte", "probe-calibrated DRAM time per byte"
    ).set(calibration.dram_ns_per_byte)
    registry.gauge(
        "probe_bus_utilization", "probe data-bus busy fraction"
    ).set(calibration.bus_utilization)
    registry.gauge(
        "probe_row_hit_rate", "probe row-buffer hit rate"
    ).set(calibration.row_hit_rate)
    registry.gauge(
        "advisor_agreement_rate", "advisor/selector agreement fraction"
    ).set(calibration.advisor_agreement)
    return calibration
