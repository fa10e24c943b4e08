"""The benchmark's four workloads.

Each workload splits into four steps so the timed region holds only
the call into the program:

* :meth:`Workload.draw_inputs` draws the inputs from the seed (untimed,
  not set-up);
* :meth:`Workload.build` constructs the program's objects (the set-up
  the ``setup_s`` metric prices: engines, fleets, ``PimSystem`` and
  arena fill);
* :meth:`Workload.call` is the timed call;
* :meth:`Workload.evaluate` runs the correctness oracles and derives
  the simulated metrics (untimed).

``smoke=True`` shrinks every workload to a run of a second or less, for
the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

# Each workload imports the program's modules it needs inside its own
# methods, so a cold set-up probe pays only for what its workload uses.

__all__ = ["Outcome", "WORKLOADS", "Workload"]

MIB = float(1 << 20)


@dataclass
class Outcome:
    """What one timed call produced, as the benchmark judges it."""

    #: canonical simulated report (JSON); its sha256 must repeat exactly
    report: str
    #: the ``sim_*`` end-to-end metrics (simulated time, deterministic)
    sim: Dict[str, float]
    #: simulated requests the call processed
    requests: int
    #: MiB the call moved (functional bytes) or placed (simulated blocks)
    mib: float
    #: oracle failures; empty when every check passed
    failures: List[str] = field(default_factory=list)
    #: report-side counts and input property shares (traced run)
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def sha(self) -> str:
        return hashlib.sha256(self.report.encode()).hexdigest()


def _serving_sim(goodput_qps: float, slo_attainment: float,
                 ttft_ns: Sequence[float], ttlt_ns: Sequence[float]) -> Dict[str, float]:
    from repro.engine.metrics import percentile

    return {
        "sim_goodput_qps": goodput_qps,
        "sim_ttft_p50_ms": percentile(ttft_ns, 50.0) / 1e6,
        "sim_ttft_p99_ms": percentile(ttft_ns, 99.0) / 1e6,
        "sim_ttlt_p99_ms": percentile(ttlt_ns, 99.0) / 1e6,
        "sim_slo_attainment": slo_attainment,
    }


def _report_sim(report, engines, requests) -> Dict[str, float]:
    """The ``sim_*`` metrics of a serving or fleet report.  The DRAM
    figure is the weight bytes one PIM decode step streams over its
    priced time at the median offered prompt, averaged over *engines*."""
    from repro.engine.metrics import percentile
    from repro.llm.layers import linear_specs

    served = [o for o in report.outcomes if o.served]
    sim = _serving_sim(report.goodput_qps, report.slo_attainment,
                       [o.ttft_ns for o in served], [o.ttlt_ns for o in served])
    context = int(percentile([float(r.prefill_tokens) for r in requests], 50.0))
    sim["sim_dram_bandwidth_gbps"] = sum(
        sum(spec.total_bytes for spec in linear_specs(engine.model))
        / engine.pim_decode_step_ns(context)
        for engine in engines
    ) / len(engines)
    return sim


class Workload:
    """One seeded workload (see the module docstring)."""

    name = ""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def draw_inputs(self) -> None:
        """Generate the seeded inputs (outside set-up and timing)."""
        raise NotImplementedError

    def build(self):
        raise NotImplementedError

    def call(self, state):
        raise NotImplementedError

    def evaluate(self, state, result) -> Outcome:
        raise NotImplementedError


#: sustainable Jetson rate per dataset name (seed 0), shared by a run's inputs
_CAPACITY: Dict[str, float] = {}


def _chat_inputs(dataset, load: float, duration_ms: float, seed: int, **tenant):
    """Open-loop Poisson requests at *load* times the sustainable rate of
    *dataset* on the Jetson; the rate is fixed across seeds (estimated at
    seed 0), so only the arrivals and samples vary."""
    from repro.engine.policies import InferenceEngine
    from repro.platforms.specs import JETSON_ORIN
    from repro.serving import TenantSpec, poisson_workload, sustainable_qps

    if dataset.name not in _CAPACITY:
        probe = TenantSpec(name="probe", dataset=dataset, policy="facil")
        _CAPACITY[dataset.name] = sustainable_qps(
            InferenceEngine(JETSON_ORIN), probe, seed=0
        )
    spec = TenantSpec(name=dataset.name, dataset=dataset, policy="facil",
                      qps=load * _CAPACITY[dataset.name], **tenant)
    return poisson_workload([spec], duration_ms, seed=seed)


def _jetson_runtime(config, workload=None):
    from repro.engine.policies import InferenceEngine
    from repro.platforms.specs import JETSON_ORIN
    from repro.serving import ServingRuntime

    return ServingRuntime(InferenceEngine(JETSON_ORIN), config, workload=workload)


# -- kv-multiturn -------------------------------------------------------------


class KvMultiturn(Workload):
    name = "kv-multiturn"

    LOAD = 2.0
    KV_BLOCKS = 256
    MEAN_TURNS = 3.0
    THINK_MS = 2000.0
    DURATION_MS = 1_200_000.0

    def draw_inputs(self) -> None:
        from repro.llm.datasets import ALPACA_LIKE

        self.requests = _chat_inputs(
            ALPACA_LIKE, self.LOAD, 30_000.0 if self.smoke else self.DURATION_MS,
            self.seed, mean_turns=self.MEAN_TURNS, think_time_ms=self.THINK_MS,
        )

    def build(self):
        from repro.serving import ServingConfig

        return _jetson_runtime(ServingConfig(seed=self.seed, kv_blocks=self.KV_BLOCKS))

    def call(self, runtime):
        return runtime.run(self.requests)

    def evaluate(self, runtime, report) -> Outcome:
        kv = report.kv
        return Outcome(
            report=report.to_json(),
            sim=_report_sim(report, [runtime.engine], self.requests),
            requests=report.offered,
            mib=kv["allocs"] * kv["block_bytes"] / MIB,
            failures=[f"kv audit: {v}" for v in kv["audit_failures"]],
            counts={"kvcache.prefix_hit_rate": kv["prefix_hit_rate"]},
        )


# -- fleet-failover -------------------------------------------------------------


class FleetFailover(Workload):
    name = "fleet-failover"

    N_DEVICES = 5
    STANDBY = 1
    PEAK_QPS = 1.2
    MEAN_TURNS = 3.0
    DEADLINE_MS = 1000.0
    KILL_GAP_MS = 10_000.0
    RECOVERY_MS = 50.0
    DURATION_MS = 900_000.0

    def draw_inputs(self) -> None:
        from repro.fleet import DIURNAL, shaped_workload
        from repro.llm.datasets import ALPACA_LIKE
        from repro.serving import TenantSpec

        duration_ms = 40_000.0 if self.smoke else self.DURATION_MS
        tenant = TenantSpec(
            name="chat", dataset=ALPACA_LIKE, policy="facil", qps=self.PEAK_QPS,
            deadline_ms=self.DEADLINE_MS, mean_turns=self.MEAN_TURNS,
        )
        self.requests = shaped_workload(
            [tenant], duration_ms, shape=DIURNAL, seed=self.seed
        )
        # jittered round-robin kills on the chaos stream, device ids
        # modulo the fleet size (a parked standby is skipped)
        rng = random.Random(self.seed * 9973 + 65537)
        gap_ns = self.KILL_GAP_MS * 1e6
        kills: List[Tuple[float, int]] = []
        t = gap_ns
        index = 0
        while t < duration_ms * 1e6:
            kills.append((t + gap_ns * (rng.random() - 0.5), index % self.N_DEVICES))
            t += gap_ns
            index += 1
        self.kills = sorted(kills)

    def build(self):
        from repro.fleet import FleetConfig, FleetRuntime

        return FleetRuntime(FleetConfig(
            n_devices=self.N_DEVICES, standby_devices=self.STANDBY,
            seed=self.seed, recovery_ms=self.RECOVERY_MS, autoscale=True,
        ))

    def call(self, runtime):
        return runtime.run(self.requests, kills=self.kills)

    def evaluate(self, runtime, report) -> Outcome:
        failures = [f"audit: {f}" for f in report.audit_findings]
        if not report.none_lost:
            failures.append("conservation: a request was lost or double-counted")
        offered = report.offered
        return Outcome(
            report=report.to_json(),
            sim=_report_sim(report, [d.engine for d in runtime.devices], self.requests),
            requests=offered,
            mib=sum(d.pool.allocs * d.pool.block_bytes for d in runtime.devices) / MIB,
            failures=failures,
            counts={
                "fleet.failovers": report.failovers,
                "fleet.kills": report.kills,
                "fleet.served_share": report.served / offered,
                "fleet.shed_share": report.shed / offered,
                "fleet.failover_share": sum(
                    1 for o in report.outcomes if o.failovers
                ) / offered,
            },
        )


# -- moe-experts ------------------------------------------------------------------


class MoeExperts(Workload):
    name = "moe-experts"

    LOAD = 0.4
    DURATION_MS = 600_000.0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        from repro.workloads import ExpertPlacementSpec

        self.spec = ExpertPlacementSpec(
            n_experts=8, experts_per_token=2, resident_experts=4
        )

    def draw_inputs(self) -> None:
        from repro.llm.datasets import HUMANEVAL_AUTOCOMPLETE_LIKE

        self.requests = _chat_inputs(
            HUMANEVAL_AUTOCOMPLETE_LIKE, self.LOAD,
            10_000.0 if self.smoke else self.DURATION_MS, self.seed,
        )

    def build(self):
        from repro.serving import ServingConfig

        return _jetson_runtime(ServingConfig(seed=self.seed), workload=self.spec)

    def call(self, runtime):
        return runtime.run(self.requests)

    def evaluate(self, runtime, report) -> Outcome:
        section = report.workload
        expert_bytes = self.spec.expert_rows * self.spec.expert_cols * 2
        return Outcome(
            report=report.to_json(),
            sim=_report_sim(report, [runtime.engine], self.requests),
            requests=report.offered,
            mib=section["misses"] * expert_bytes / MIB,
            failures=[f"moe conservation: {f}" for f in section["findings"]],
            counts={
                "workloads.moe_hit_rate": section["hit_rate"],
                "workloads.moe_miss_rate": 1.0 - section["hit_rate"],
                "workloads.expert_reloads": section["reloads"],
            },
        )


# -- pim-datapath -------------------------------------------------------------------


class PimDatapath(Workload):
    name = "pim-datapath"

    #: resident arena filled at set-up (one huge page)
    ARENA_ROWS, ARENA_COLS = 512, 1024
    #: round tensor: just over one huge page, so a migration moves part
    ROWS, COLS = 1040, 1024
    #: the migration: the tensor's first huge page moves to this FACIL
    #: MapID (the static selector places the tensor at MapID 3)
    MIGRATE_MAP_ID = 5
    #: transfers timed per huge-page segment of the tensor, read and write
    SAMPLE_TRANSFERS = 1024
    #: open-loop DRAM arrivals, as a share of peak transfer rate
    OPEN_LOAD = 0.05
    #: latency limit of one DRAM request
    SLO_NS = 100.0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        from repro.adaptive.arena import ADAPTIVE_ARENA_ORG
        from repro.dram.config import LPDDR5_6400_TIMINGS, DramConfig
        from repro.pim.config import aim_config_for

        self.org = ADAPTIVE_ARENA_ORG
        self.pim = aim_config_for(self.org)
        self.dram = DramConfig(self.org, LPDDR5_6400_TIMINGS)
        self.rows = 16 if smoke else self.ROWS
        self.sample = 64 if smoke else self.SAMPLE_TRANSFERS

    def draw_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        peak_bytes_per_ns = (
            self.org.n_channels * self.org.data_rate_mbps
            * self.org.channel_width_bits / 8 / 1e3
        )
        mean_gap = self.org.transfer_bytes / (self.OPEN_LOAD * peak_bytes_per_ns)
        self.data = rng.integers(
            0, 1 << 16, size=(self.rows, self.COLS), dtype=np.uint16
        )
        # open-loop inter-arrival gaps of the DRAM request stream (two
        # huge-page segments, each timed as reads then writes)
        self.gaps_ns = rng.exponential(mean_gap, size=4 * self.sample)

    def build(self):
        from repro.core.pimalloc import PimSystem
        from repro.core.selector import MatrixConfig

        system = PimSystem.build(
            self.org, self.pim, functional=True, ecc=True, journal=True
        )
        arena_data = np.random.default_rng(self.seed + 1).integers(
            0, 1 << 16, size=(self.ARENA_ROWS, self.ARENA_COLS), dtype=np.uint16
        )
        arena = system.pimalloc(
            MatrixConfig(rows=self.ARENA_ROWS, cols=self.ARENA_COLS, dtype_bytes=2)
        )
        arena.store(arena_data)
        system.journal.truncate_committed()
        return {
            "system": system,
            "arena": arena,
            "arena_crc": zlib.crc32(arena_data.tobytes()),
            "refcounts": dict(system.controller.table.refcounts()),
        }

    # -- the timed round --------------------------------------------------

    def _stream(self, system, tensor, gaps_ns) -> Tuple[list, list]:
        """The tensor's translated transfers, page segment by page
        segment: a closed stream (all due at once) and the same
        transfers due open-loop, each its own tagged request."""
        from repro.dram.address import DramCoord, Field
        from repro.dram.command import Request as DramRequest

        step = self.org.transfer_bytes
        closed = []
        for pa, length, map_id in system.space.mmu.translate_range(
            tensor.va, tensor.nbytes_padded
        ):
            pas = np.arange(pa, pa + min(length, self.sample * step), step,
                            dtype=np.int64)
            fields = system.controller.translate_array(pas, map_id)
            coords = [
                DramCoord(channel=int(c), rank=int(r), bank=int(b), row=int(w),
                          col=int(k))
                for c, r, b, w, k in zip(
                    fields[Field.CHANNEL], fields[Field.RANK], fields[Field.BANK],
                    fields[Field.ROW], fields[Field.COL],
                )
            ]
            closed += [DramRequest(coord=c) for c in coords]
            closed += [DramRequest(coord=c, is_write=True) for c in coords]
        arrivals = np.cumsum(gaps_ns[: len(closed)])
        open_loop = [
            DramRequest(coord=r.coord, is_write=r.is_write,
                        arrival_ns=float(t), tag=str(i))
            for i, (r, t) in enumerate(zip(closed, arrivals))
        ]
        return closed, open_loop

    def call(self, state):
        from repro.core.selector import MatrixConfig
        from repro.dram.system import DramTimingSimulator

        system = state["system"]
        tensor = system.pimalloc(
            MatrixConfig(rows=self.rows, cols=self.COLS, dtype_bytes=2)
        )
        tensor.store(self.data)
        first = tensor.load(np.uint16)
        migrated = system.allocator.migrate_pages(
            tensor, self.MIGRATE_MAP_ID, page_start=0, page_count=1
        )
        second = tensor.load(np.uint16)
        closed, open_loop = self._stream(system, tensor, self.gaps_ns)
        closed_sim = DramTimingSimulator(self.dram).run(closed)
        open_sim = DramTimingSimulator(self.dram).run(open_loop)
        nbytes = tensor.nbytes_padded
        # free() drops only the tensor's own MapID, but a partially
        # migrated area holds one reference per distinct MapID: the
        # caller releases the others
        surplus = sorted(
            set(system.space.area_page_map_ids(tensor.va)) - {tensor.map_id}
        )
        tensor.free()
        for map_id in surplus:
            system.allocator.release_mapping(map_id)
        observed = {
            "first": first,
            "second": second,
            "migrated": migrated,
            "nbytes": nbytes,
            "closed": closed_sim,
            "open": open_sim,
            "refcounts": dict(system.controller.table.refcounts()),
            "uncommitted": len(system.journal.uncommitted()),
        }
        system.journal.truncate_committed()
        return observed

    def evaluate(self, state, observed) -> Outcome:
        failures: List[str] = []
        want = zlib.crc32(self.data.tobytes())
        for label, key in (("store", "first"), ("migration", "second")):
            if zlib.crc32(observed[key].tobytes()) != want:
                failures.append(f"CRC mismatch after {label}")
        if observed["refcounts"] != state["refcounts"]:
            failures.append(
                f"refcounts {observed['refcounts']} after free, "
                f"baseline {state['refcounts']}"
            )
        if observed["uncommitted"]:
            failures.append(f"{observed['uncommitted']} uncommitted journal txn(s)")
        arena = state["arena"]
        if zlib.crc32(arena.load(np.uint16).tobytes()) != state["arena_crc"]:
            failures.append("resident arena bytes changed")

        closed, open_sim = observed["closed"], observed["open"]
        latencies = [lat for _, _, lat in open_sim.per_tag.values()]
        within = sum(1 for lat in latencies if lat <= self.SLO_NS)
        burst_ns = self.dram.timings.burst_time_ns(self.org)
        sim = _serving_sim(
            within / (open_sim.total_ns / 1e9), within / len(latencies),
            [lat - burst_ns for lat in latencies], latencies,
        )
        sim["sim_dram_bandwidth_gbps"] = closed.bandwidth_gbps
        stored = observed["nbytes"]
        loaded = 2 * stored
        moved = observed["migrated"]["pages"] * state["system"].huge_page_bytes
        total = stored + loaded + moved
        report = {
            "seed": self.seed,
            "crc": f"{want:08x}",
            "migrated": observed["migrated"],
            "closed": {
                "total_ns": closed.total_ns, "requests": closed.n_requests,
                "row_hits": closed.row_hits, "row_misses": closed.row_misses,
                "row_conflicts": closed.row_conflicts,
            },
            "open": {
                "total_ns": open_sim.total_ns, "requests": open_sim.n_requests,
                "latency_sum_ns": sum(latencies),
            },
            "sim": sim,
        }
        return Outcome(
            report=json.dumps(report, indent=2),
            sim=sim,
            requests=closed.n_requests + open_sim.n_requests,
            mib=total / MIB,
            failures=failures,
            counts={
                "dram.row_hit_rate": closed.row_hit_rate,
                "datapath.write_share": stored / total,
                "datapath.read_share": loaded / total,
                "datapath.migrate_share": moved / total,
            },
        )


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (KvMultiturn, FleetFailover, MoeExperts, PimDatapath)
}
