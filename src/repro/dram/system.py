"""Top-level DRAM timing simulator.

Feeds request streams (coordinate arrays) through per-channel FR-FCFS
schedulers and reports aggregate service time, bandwidth, and row-buffer
statistics.  Channels run independently, as in hardware, so total time is
the max over channels.

For very long streams, :meth:`DramTimingSimulator.measure_bandwidth`
simulates a representative sample and extrapolates — the workloads in the
paper's evaluation touch tens of GB, which would be needlessly slow to
replay transfer-by-transfer in Python when the stream is statistically
uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.dram.address import DramCoord, Field
from repro.dram.command import DramCommand, Request
from repro.dram.config import DramConfig
from repro.dram.scheduler import ChannelScheduler, ChannelStats, check_sizes

__all__ = ["DramTimingSimulator", "SimResult", "requests_from_fields"]


@dataclass
class SimResult:
    """Aggregate outcome of one simulated request stream."""

    total_ns: float
    n_requests: int
    bytes_moved: int
    row_hits: int
    row_misses: int
    row_conflicts: int
    per_channel: Dict[int, ChannelStats]
    #: per tag: (requests, last data-end ns, summed arrival->end latency)
    per_tag: Dict[str, Tuple[int, float, float]] = None

    def mean_latency_ns(self, tag: str) -> float:
        count, _, latency = self.per_tag[tag]
        return latency / count if count else 0.0

    @property
    def bandwidth_gbps(self) -> float:
        if self.total_ns <= 0:
            return 0.0
        return self.bytes_moved / self.total_ns  # bytes/ns == GB/s

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses + self.row_conflicts
        return self.row_hits / total if total else 0.0


def requests_from_fields(
    fields: Dict[str, np.ndarray],
    is_write: bool = False,
) -> List[Request]:
    """Build transfer requests from decoded field arrays (one per
    transfer; the ``offset`` field is ignored)."""
    n = len(fields[Field.CHANNEL])
    return [
        Request(
            coord=DramCoord(
                channel=int(fields[Field.CHANNEL][i]),
                rank=int(fields[Field.RANK][i]),
                bank=int(fields[Field.BANK][i]),
                row=int(fields[Field.ROW][i]),
                col=int(fields[Field.COL][i]),
            ),
            is_write=is_write,
        )
        for i in range(n)
    ]


class DramTimingSimulator:
    """Replay request streams against a :class:`DramConfig`."""

    def __init__(
        self,
        config: DramConfig,
        window: int = 64,
        n_row_buffers: int = 1,
        priority_tag: Optional[str] = None,
        model_refresh: bool = False,
        log_commands: bool = False,
    ):
        check_sizes(window, n_row_buffers)
        self.config = config
        self.window = window
        self.n_row_buffers = n_row_buffers
        self.priority_tag = priority_tag
        self.model_refresh = model_refresh
        self.log_commands = log_commands
        #: per-channel device-command logs of the most recent :meth:`run`
        #: (populated only when ``log_commands`` is True)
        self.command_logs: Dict[int, List[DramCommand]] = {}

    def run(self, requests: Iterable[Request]) -> SimResult:
        """Serve *requests* (arrival order = stream order) to completion."""
        org = self.config.org
        schedulers: Dict[int, ChannelScheduler] = {}
        n_requests = 0
        for request in requests:
            channel = request.coord.channel
            sched = schedulers.get(channel)
            if sched is None:
                sched = ChannelScheduler(
                    self.config,
                    channel,
                    self.window,
                    self.n_row_buffers,
                    self.priority_tag,
                    self.model_refresh,
                    self.log_commands,
                )
                schedulers[channel] = sched
            sched.enqueue(request)
            n_requests += 1
        total = 0.0
        self.command_logs = {}
        for sched in schedulers.values():
            total = max(total, sched.drain())
            sched.collect_bank_stats()
            if sched.command_log is not None:
                self.command_logs[sched.channel] = sched.command_log
        per_channel = {ch: s.stats for ch, s in schedulers.items()}
        per_tag: Dict[str, Tuple[int, float, float]] = {}
        for sched in schedulers.values():
            for tag, (count, last, latency) in sched.completions.items():
                prev = per_tag.get(tag, (0, 0.0, 0.0))
                per_tag[tag] = (
                    prev[0] + count,
                    max(prev[1], last),
                    prev[2] + latency,
                )
        return SimResult(
            per_tag=per_tag,
            total_ns=total,
            n_requests=n_requests,
            bytes_moved=n_requests * org.transfer_bytes,
            row_hits=sum(s.row_hits for s in per_channel.values()),
            row_misses=sum(s.row_misses for s in per_channel.values()),
            row_conflicts=sum(s.row_conflicts for s in per_channel.values()),
            per_channel=per_channel,
        )

    def measure_bandwidth(
        self,
        fields: Dict[str, np.ndarray],
        is_write: bool = False,
        sample_transfers: Optional[int] = 65536,
    ) -> float:
        """Effective bandwidth (GB/s) of a stream, optionally sampled.

        The first *sample_transfers* transfers are simulated exactly; the
        result is the steady-state bandwidth, valid for streams whose
        access pattern is homogeneous (sequential copies, tiled GEMM
        sweeps).
        """
        n = len(fields[Field.CHANNEL])
        if sample_transfers is not None and n > sample_transfers:
            fields = {k: v[:sample_transfers] for k, v in fields.items()}
        result = self.run(requests_from_fields(fields, is_write))
        return result.bandwidth_gbps
