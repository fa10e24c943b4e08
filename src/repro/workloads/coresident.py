"""Two-model co-residency as a serving workload (extension).

Two model configurations share one DRAM: each model's distinct linear
shapes are pimalloc'd in the same journaled :class:`PimSystem`, so
``select_mapping`` assigns every shape its own MapID and both models'
mappings are live in the controller's table at once — the unified-layout
problem per-tensor flexible mapping dissolves (a fixed global mapping
would have to pick one model's preferred layout and ruin the other's).

Requests whose tenant equals ``secondary_tenant`` run on the secondary
model's engine; everything else runs on the primary.  Pricing is
per-model (each engine prices its own prefill and decode), and every
time a resource's occupant switches models the loop charges
``switch_penalty_ns`` — the lost row-buffer / MapID working-set locality
— and counts an interference event, so a co-resident run is directly
comparable against two solo runs.

Conservation contract: per-model MapID sets are disjoint-or-shared only
by identical shapes, refcounts drop to zero at teardown, the journal
settles, and the mapping table returns to the conventional entry alone.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.pimalloc import PimSystem, PimTensor
from repro.dram.config import TINY_ORG
from repro.engine.policies import InferenceEngine
from repro.llm.layers import linear_specs
from repro.llm.model_config import model_by_name
from repro.pim.config import aim_config_for
from repro.serving.device import Route
from repro.serving.runtime import ServingRuntime
from repro.serving.workload import Request
from repro.workloads.runtime import DecodeResult, WorkloadLoop, require_placed
from repro.workloads.specs import CoResidencySpec

__all__ = ["CoResidencyLoop", "coresident_org", "place_model"]

_HUGE_PAGE_BYTES = 2 << 20


def _next_pow2(n: int) -> int:
    return 1 << max(0, (int(n) - 1).bit_length())


def _distinct_shapes(model) -> List[Tuple[int, int, int]]:
    """The model's distinct linear shapes (head excluded: the placement
    sandbox needs one exemplar per mapping decision, not the full
    parameter budget)."""
    shapes = []
    for spec in linear_specs(model, include_head=False):
        key = (spec.out_features, spec.in_features, spec.dtype_bytes)
        if key not in shapes:
            shapes.append(key)
    return shapes


def coresident_org(primary, secondary):
    """A DRAM organization fitting one exemplar of every distinct shape
    of both models, with headroom for huge-page padding."""
    total = 0
    for model in (primary, secondary):
        for rows, cols, dtype_bytes in _distinct_shapes(model):
            raw = rows * cols * dtype_bytes
            total += -(-raw // _HUGE_PAGE_BYTES) * _HUGE_PAGE_BYTES
    capacity = _next_pow2(max(4 * total, 16 << 20))
    bank_row_bytes = TINY_ORG.total_banks * TINY_ORG.row_bytes
    return replace(TINY_ORG, rows_per_bank=capacity // bank_row_bytes)


def place_model(system: PimSystem, model) -> List[PimTensor]:
    """Pimalloc one exemplar tensor per distinct linear shape."""
    from repro.core.selector import MatrixConfig

    return [
        system.pimalloc(MatrixConfig(rows=r, cols=c, dtype_bytes=d))
        for r, c, d in _distinct_shapes(model)
    ]


class CoResidencyLoop(WorkloadLoop):
    """Serving loop with two co-resident models and per-model routing."""

    name = "coresident"

    def __init__(self, runtime: ServingRuntime, spec: CoResidencySpec) -> None:
        super().__init__(runtime, spec)
        self.spec: CoResidencySpec = spec
        self.secondary_engine = InferenceEngine(
            runtime.engine.platform, model=model_by_name(spec.secondary_model)
        )
        self.system: Optional[PimSystem] = None
        self.placed: Dict[str, List[PimTensor]] = {}
        self.map_ids: Dict[str, List[int]] = {}
        #: which model last occupied each resource timeline
        self._occupant: Dict[str, Optional[str]] = {"soc": None, "pim": None}
        self.switches = 0
        self.switch_ns = 0.0
        self.served: Dict[str, int] = {"primary": 0, "secondary": 0}
        self.tokens: Dict[str, int] = {"primary": 0, "secondary": 0}
        self.findings: List[str] = []

    # -- model routing -------------------------------------------------

    def _model_key(self, head: Request) -> str:
        return (
            "secondary"
            if head.tenant == self.spec.secondary_tenant
            else "primary"
        )

    def _engine_for(self, head: Request) -> InferenceEngine:
        return (
            self.secondary_engine
            if self._model_key(head) == "secondary"
            else self.runtime.engine
        )

    def _switch_cost(self, resource: str, model_key: str) -> float:
        """Charge the re-mux penalty when *resource*'s occupant changes."""
        prev = self._occupant[resource]
        self._occupant[resource] = model_key
        if prev is None or prev == model_key:
            return 0.0
        self.switches += 1
        self.switch_ns += self.spec.switch_penalty_ns
        return self.spec.switch_penalty_ns

    # -- lifecycle -----------------------------------------------------

    def setup(self) -> None:
        primary = self.runtime.engine.model
        secondary = self.secondary_engine.model
        org = coresident_org(primary, secondary)
        self.system = PimSystem.build(
            org, aim_config_for(org), functional=False, journal=True
        )
        self.placed = {
            "primary": place_model(self.system, primary),
            "secondary": place_model(self.system, secondary),
        }
        self.map_ids = {
            key: sorted({t.map_id for t in tensors})
            for key, tensors in self.placed.items()
        }

    def teardown(self, end_ns: float) -> None:
        system = require_placed(self.system, "co-resident system")
        for tensors in self.placed.values():
            for tensor in tensors:
                tensor.free()
        findings: List[str] = []
        uncommitted = system.journal.uncommitted()
        if uncommitted:
            findings.append(
                f"{len(uncommitted)} uncommitted journal transaction(s)"
            )
        live = len(system.controller.table)
        if live != 1:
            findings.append(
                f"mapping table holds {live} entries (want conventional only)"
            )
        self.findings = findings

    # -- routing + phases ----------------------------------------------

    def route(self, head: Request, now_ns: float, backlog_ns: float) -> Route:
        return self.core.route(
            head, now_ns, backlog_ns, engine=self._engine_for(head)
        )

    def prefill_overhead(
        self, head: Request, route: Route, est_ns: float, start_ns: float
    ) -> float:
        return self._switch_cost(
            route.prefill_resource, self._model_key(head)
        )

    def decode(
        self,
        head: Request,
        route: Route,
        prefill_end_ns: float,
        decode_tokens: int,
        rng: random.Random,
    ) -> DecodeResult:
        engine = self._engine_for(head)
        model_key = self._model_key(head)
        on_pim = route.pim_decode
        resource = "pim" if on_pim else "soc"
        decode_ns = engine.decode_total_ns(
            head.prefill_tokens, decode_tokens, on_pim
        ) + self._switch_cost(resource, model_key)
        result = self.core.decode_phase(
            prefill_end_ns, decode_ns, resource, decode_tokens, self.free, rng
        )
        if result.ok:
            self.served[model_key] += 1
            self.tokens[model_key] += decode_tokens
        return result

    # -- reporting -----------------------------------------------------

    def decode_span_args(self, head: Request) -> Dict:
        return {"model": self._model_key(head)}

    def sections(self) -> Dict[str, Optional[Dict]]:
        shared = sorted(
            set(self.map_ids.get("primary", ()))
            & set(self.map_ids.get("secondary", ()))
        )
        section = {
            "name": self.name,
            "primary_model": self.runtime.engine.model.name,
            "secondary_model": self.spec.secondary_model,
            "secondary_tenant": self.spec.secondary_tenant,
            "switch_penalty_ns": self.spec.switch_penalty_ns,
            "primary_map_ids": list(self.map_ids.get("primary", ())),
            "secondary_map_ids": list(self.map_ids.get("secondary", ())),
            "shared_map_ids": shared,
            "interference_switches": self.switches,
            "interference_ns": self.switch_ns,
            "served_primary": self.served["primary"],
            "served_secondary": self.served["secondary"],
            "tokens_primary": self.tokens["primary"],
            "tokens_secondary": self.tokens["secondary"],
            # the invariants the property tests and the bench gate assert
            "conservation_findings": len(self.findings),
            "findings": list(self.findings),
        }
        return {"workload": section}
