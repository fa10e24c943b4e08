"""SoC-PIM memory co-scheduling experiment (paper §V-C extension).

FACIL's "Remaining Challenges" notes that once PIM lives in the main
memory system, PIM and non-PIM requests contend: a PIM MAC pass keeps
rows open in every bank while normal SoC traffic wants its own rows —
single row buffers ping-pong with conflicts.  The paper points to two
mitigations from prior work: PIM-aware scheduling and NeuPIMs-style
**dual row buffers**.

This module builds the experiment: interleave an SoC read stream
(conventional mapping) with a PIM column stream (PIM-optimized mapping)
through the timing simulator, account each stream separately, and
measure how much of each stream's solo bandwidth survives — with one and
with two row buffers per bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.controller import CONVENTIONAL_MAP_ID, MemoryController
from repro.dram.command import Request
from repro.dram.config import DramConfig
from repro.dram.system import DramTimingSimulator, SimResult, requests_from_fields

__all__ = ["ContentionResult", "cosched_experiment"]


@dataclass(frozen=True)
class ContentionResult:
    """Per-stream bandwidths, solo vs co-scheduled."""

    soc_alone_gbps: float
    pim_alone_gbps: float
    soc_shared_gbps: float
    pim_shared_gbps: float
    row_conflicts_shared: int
    n_row_buffers: int
    priority_tag: str = ""
    soc_mean_latency_ns: float = 0.0
    pim_mean_latency_ns: float = 0.0


def _tagged(
    fields: Dict[str, np.ndarray], tag: str, uses_bus: bool = True
) -> List[Request]:
    requests = requests_from_fields(fields)
    return [
        Request(coord=r.coord, is_write=r.is_write, tag=tag, uses_bus=uses_bus)
        for r in requests
    ]


def _stream_bandwidth(result: SimResult, tag: str, transfer_bytes: int) -> float:
    count, last_ns, _ = result.per_tag[tag]
    if last_ns <= 0:
        return 0.0
    return count * transfer_bytes / last_ns


def cosched_experiment(
    dram: DramConfig,
    pim_map_id: int,
    controller: MemoryController,
    n_transfers: int = 8192,
    n_row_buffers: int = 1,
    window: int = 64,
    seed: int = 7,
    priority_tag: str = "",
) -> ContentionResult:
    """Run the co-scheduling experiment on one configuration.

    The SoC stream is a sequential read under the conventional mapping
    (a concurrent process streaming through memory); the PIM stream is a
    sequential sweep under the PIM-optimized mapping — the column-read
    pattern of an all-bank MAC pass, which parks one open row per bank.
    """
    org = dram.org
    span = n_transfers * org.transfer_bytes
    pas = np.arange(0, span, org.transfer_bytes, dtype=np.int64)
    # Offset the PIM weights into a different huge page so the streams
    # touch disjoint rows (as weight vs activation data would).
    pim_pas = pas + controller.page_bytes

    soc_requests = _tagged(
        controller.translate_array(pas, CONVENTIONAL_MAP_ID), "soc"
    )
    # PIM MAC column reads: bank-internal, bus-free.
    pim_requests = _tagged(
        controller.translate_array(pim_pas, pim_map_id), "pim", uses_bus=False
    )

    simulator = DramTimingSimulator(
        dram,
        window=window,
        n_row_buffers=n_row_buffers,
        priority_tag=priority_tag or None,
    )
    solo_soc = simulator.run(soc_requests)
    solo_pim = simulator.run(pim_requests)

    # Open-loop arrivals for the shared run, paced from *reference*
    # single-buffer solo rates so every (buffers, priority) configuration
    # faces the identical offered load: the SoC stream arrives at 60% of
    # its solo service rate (a process streaming, not saturating), the
    # PIM stream at 60% of its single-buffer rate (a decode GEMV's
    # column cadence).  Per-request latency then measures the queueing
    # each stream suffers from the other.
    reference = DramTimingSimulator(dram, window=window, n_row_buffers=1)
    ref_soc = reference.run(soc_requests)
    ref_pim = reference.run(pim_requests)
    soc_rate_ns = org.transfer_bytes / _stream_bandwidth(
        ref_soc, "soc", org.transfer_bytes
    )
    pim_rate_ns = org.transfer_bytes / _stream_bandwidth(
        ref_pim, "pim", org.transfer_bytes
    ) / 0.6
    soc_paced = [
        Request(
            coord=r.coord, is_write=r.is_write, tag=r.tag,
            uses_bus=r.uses_bus, arrival_ns=i * soc_rate_ns / 0.6,
        )
        for i, r in enumerate(soc_requests)
    ]
    pim_paced = [
        Request(
            coord=r.coord, is_write=r.is_write, tag=r.tag,
            uses_bus=r.uses_bus, arrival_ns=i * pim_rate_ns,
        )
        for i, r in enumerate(pim_requests)
    ]
    # queue order = arrival order, so the scheduler's lookahead window
    # sees what has actually arrived
    merged = sorted(soc_paced + pim_paced, key=lambda r: r.arrival_ns)
    shared = simulator.run(merged)

    transfer = org.transfer_bytes
    return ContentionResult(
        soc_alone_gbps=_stream_bandwidth(solo_soc, "soc", transfer),
        pim_alone_gbps=_stream_bandwidth(solo_pim, "pim", transfer),
        soc_shared_gbps=_stream_bandwidth(shared, "soc", transfer),
        pim_shared_gbps=_stream_bandwidth(shared, "pim", transfer),
        row_conflicts_shared=shared.row_conflicts,
        n_row_buffers=n_row_buffers,
        priority_tag=priority_tag,
        soc_mean_latency_ns=shared.mean_latency_ns("soc"),
        pim_mean_latency_ns=shared.mean_latency_ns("pim"),
    )
