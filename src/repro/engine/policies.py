"""Execution policies for SoC-PIM cooperative inference (paper §VI).

Four policies are modeled:

* ``soc-only`` — everything on the SoC processor (no PIM).
* ``hybrid-static`` — the paper's baseline: weights live in the PIM
  layout; every prefill re-layouts each matrix on demand to run GEMM on
  the SoC; decode GEMVs run on PIM.
* ``hybrid-dynamic`` — the paper's optimized baseline: prefill GEMMs go
  to SoC *or* PIM depending on a profiled prefill-length threshold
  (tall-and-skinny GEMMs are faster on PIM than SoC-plus-re-layout).
* ``facil`` — the proposal: the SoC runs GEMM directly on the
  PIM-optimized layout through FACIL's flexible mapping (no re-layout; a
  conservative Table III slowdown is applied), decode runs on PIM.  The
  dataset experiments additionally enable the same dynamic offload.

All latencies come from the substrate models: the SoC roofline, the PIM
command-level GEMV model, and the re-layout cost model.
A prefill is placed on a unit and priced only by
:meth:`InferenceEngine.price_prefill`; a decode is summed only by
:meth:`InferenceEngine.decode_total_ns`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.relayout import relayout_cost_ns
from repro.core.selector import MatrixConfig, select_mapping
from repro.engine.metrics import QueryLatency
from repro.llm.inference import AttentionCost, attention_cost, decode_step_plan, prefill_plan
from repro.llm.layers import LinearSpec, linear_specs
from repro.llm.model_config import LlmConfig, model_by_name
from repro.pim.gemv import GemvLatency, gemv_latency
from repro.platforms.specs import PlatformSpec
from repro.soc.processor import SocProcessor

__all__ = ["InferenceEngine", "POLICIES", "PrefillPrice", "decode_on_pim"]

POLICIES = ("soc-only", "hybrid-static", "hybrid-dynamic", "facil")
#: policies whose weights sit in the PIM layout while their SoC GEMMs
#: need the conventional one: each prefill on the SoC re-lays out first
_RELAYOUT_POLICIES = ("hybrid-static", "hybrid-dynamic")
#: policies that move a prefill to PIM when PIM is allowed and faster
_OFFLOAD_POLICIES = ("hybrid-dynamic", "facil")


def decode_on_pim(policy: str) -> bool:
    """True when *policy* runs its decode GEMVs on the PIM units (i.e. it
    needs healthy PIM hardware for its normal decode path)."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")
    return policy != "soc-only"

#: Per-offloaded-op dispatch overhead for PIM command streams.
PIM_DISPATCH_NS = 2_000.0


@dataclass(frozen=True)
class PrefillPrice:
    """Where one prefill runs and what it costs
    (see :meth:`InferenceEngine.price_prefill`)."""

    resource: str  # "soc" or "pim": the unit whose timeline it occupies
    compute_ns: float
    #: re-layout paid ahead of a hybrid policy's SoC prefill
    relayout_ns: float = 0.0

    @property
    def total_ns(self) -> float:
        return self.relayout_ns + self.compute_ns

    def breakdown(self) -> Dict[str, float]:
        """The prefill's share of a :class:`QueryLatency` breakdown."""
        parts = {"relayout": self.relayout_ns} if self.relayout_ns > 0.0 else {}
        parts[f"prefill_{self.resource}"] = self.compute_ns
        return parts


@dataclass(frozen=True)
class _SpecCosts:
    """Precomputed per-instance costs of one linear spec."""

    spec: LinearSpec
    pim_gemv: GemvLatency
    relayout_ns: float


class InferenceEngine:
    """Prices queries on one platform + model under each policy."""

    def __init__(
        self,
        platform: PlatformSpec,
        model: Optional[LlmConfig] = None,
        huge_page_bytes: int = 2 << 20,
        relayout_mode: str = "peak-bw",
        soc_override: Optional[SocProcessor] = None,
    ):
        self.platform = platform
        self.model = model if model is not None else model_by_name(platform.model_name)
        self.soc = soc_override if soc_override is not None else platform.soc
        self.huge_page_bytes = huge_page_bytes
        self._costs: Dict[str, _SpecCosts] = {}
        for spec in linear_specs(self.model):
            matrix = spec.matrix_config()
            selection = select_mapping(
                matrix, platform.dram.org, platform.pim, huge_page_bytes
            )
            pim = gemv_latency(
                matrix,
                platform.dram,
                platform.pim,
                huge_page_bytes,
                selection=selection,
            )
            relayout = relayout_cost_ns(
                spec.bytes_per_instance, platform.dram, mode=relayout_mode
            )
            self._costs[spec.name] = _SpecCosts(
                spec=spec, pim_gemv=pim, relayout_ns=relayout.total_ns
            )
        # Decode steps repeat the same context lengths across queries and
        # sweeps; memoize the pure pricing functions per engine instance.
        self.soc_prefill_ns = functools.lru_cache(maxsize=None)(self.soc_prefill_ns)
        self.pim_prefill_ns = functools.lru_cache(maxsize=None)(self.pim_prefill_ns)
        self.soc_decode_step_ns = functools.lru_cache(maxsize=None)(
            self.soc_decode_step_ns
        )
        self.pim_decode_step_ns = functools.lru_cache(maxsize=None)(
            self.pim_decode_step_ns
        )

    # ------------------------------------------------------------------
    # phase primitives
    # ------------------------------------------------------------------

    def _attention_ns(self, attention: AttentionCost) -> float:
        base = self.soc.op_time_ns(attention.flops, attention.bytes_moved)
        return base + (attention.n_kernels - 1) * self.soc.kernel_launch_ns

    def _gemm_batch(self, spec: LinearSpec, batch_tokens: int) -> int:
        """Prefill batch size for a spec (the LM head only needs logits
        for the final position)."""
        return 1 if spec.name == "lm_head" else batch_tokens

    def soc_prefill_ns(
        self, prefill_len: int, pim_layout: bool = False, context: int = 0
    ) -> float:
        """Prefill entirely on the SoC: GEMMs over *prefill_len* new
        tokens, attention over those plus *context* cached ones.  With
        ``pim_layout`` the GEMMs run on the PIM-optimized layout (FACIL)
        and are scaled by the platform's conservative Table III
        slowdown."""
        plan = prefill_plan(self.model, prefill_len)
        gemm_ns = 0.0
        for spec in plan.linears:
            n = self._gemm_batch(spec, plan.batch_tokens)
            gemm_ns += spec.count * self.soc.gemm_time_ns(
                spec.out_features, n, spec.in_features, spec.dtype_bytes
            )
        if pim_layout:
            gemm_ns *= 1.0 + self.platform.gemm_layout_slowdown
        attention = attention_cost(self.model, prefill_len, context + prefill_len)
        return gemm_ns + self._attention_ns(attention)

    def relayout_total_ns(self) -> float:
        """On-demand re-layout of every weight matrix, paid once per
        prefill by the hybrid baseline."""
        return sum(c.spec.count * c.relayout_ns for c in self._costs.values())

    def pim_prefill_ns(self, prefill_len: int) -> float:
        """Prefill on PIM: the tall-and-skinny GEMM as L back-to-back
        GEMV passes (AiM holds one input vector at a time), attention and
        glue on the SoC."""
        plan = prefill_plan(self.model, prefill_len)
        gemv_ns = 0.0
        reduce_bytes = 0.0
        for spec in plan.linears:
            cost = self._costs[spec.name]
            n = self._gemm_batch(spec, plan.batch_tokens)
            gemv_ns += spec.count * (n * cost.pim_gemv.total_ns + PIM_DISPATCH_NS)
            reduce_bytes += spec.count * n * cost.pim_gemv.soc_reduce_bytes
        reduce_ns = self.soc.stream_time_ns(reduce_bytes)
        return gemv_ns + reduce_ns + self._attention_ns(plan.attention)

    def soc_decode_step_ns(self, context_len: int) -> float:
        plan = decode_step_plan(self.model, context_len)
        gemv_ns = 0.0
        for spec in plan.linears:
            gemv_ns += spec.count * self.soc.gemv_time_ns(
                spec.out_features, spec.in_features, spec.dtype_bytes
            )
        return gemv_ns + self._attention_ns(plan.attention)

    def pim_decode_step_ns(self, context_len: int) -> float:
        """One decode step with linear GEMVs on PIM; attention, glue, and
        partial-sum reduction on the SoC."""
        plan = decode_step_plan(self.model, context_len)
        gemv_ns = 0.0
        reduce_bytes = 0.0
        for spec in plan.linears:
            cost = self._costs[spec.name]
            gemv_ns += spec.count * (cost.pim_gemv.total_ns + PIM_DISPATCH_NS)
            reduce_bytes += spec.count * cost.pim_gemv.soc_reduce_bytes
        reduce_ns = self.soc.stream_time_ns(reduce_bytes)
        return gemv_ns + reduce_ns + self._attention_ns(plan.attention)

    # ------------------------------------------------------------------
    # phase-level pricing (the serving runtime schedules phases on
    # resources and applies per-phase breaker/brownout decisions)
    # ------------------------------------------------------------------

    def price_prefill(
        self,
        policy: str,
        prefill_len: int,
        allow_pim: bool = True,
        context: int = 0,
    ) -> PrefillPrice:
        """Place and price the prefill of *policy*: *prefill_len* new
        tokens attending to *context* cached ones.

        The SoC path is the re-layout (hybrid policies) followed by the
        SoC prefill, on the PIM layout under FACIL.  Hybrid-dynamic and
        FACIL move the prefill to PIM when that is strictly faster and
        *allow_pim* holds; ties stay on the SoC.  This is the one place
        a policy decides where its prefill runs and what it pays.
        """
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")
        if prefill_len <= 0:
            raise ValueError("prefill length must be positive")
        relayout = self.relayout_total_ns() if policy in _RELAYOUT_POLICIES else 0.0
        soc = PrefillPrice(
            "soc", self.soc_prefill_ns(prefill_len, policy == "facil", context), relayout
        )
        if allow_pim and policy in _OFFLOAD_POLICIES:
            pim_ns = self.pim_prefill_ns(prefill_len)
            if pim_ns < soc.total_ns:
                return PrefillPrice("pim", pim_ns)
        return soc

    def decode_total_ns(
        self, prefill_len: int, decode_len: int, on_pim: bool
    ) -> float:
        """Price the decode phase on the given unit: steps 2..D (the
        first token comes from prefill)."""
        if prefill_len <= 0 or decode_len <= 0:
            raise ValueError("prefill and decode lengths must be positive")
        step = self.pim_decode_step_ns if on_pim else self.soc_decode_step_ns
        return sum(step(prefill_len + t) for t in range(1, decode_len))

    # ------------------------------------------------------------------
    # dynamic-offload profiling (paper §VI-C)
    # ------------------------------------------------------------------

    def prefill_crossover(self, max_len: int = 1024) -> int:
        """Profiled threshold: smallest prefill length at which the SoC
        path (re-layout + GEMM) beats PIM-executed prefill.  Queries
        shorter than this run their prefill on PIM under the
        hybrid-dynamic baseline."""
        return self._crossover("hybrid-dynamic", max_len)

    def facil_crossover(self, max_len: int = 1024) -> int:
        """Same profiling for FACIL (no re-layout on the SoC path)."""
        return self._crossover("facil", max_len)

    def _crossover(self, policy: str, max_len: int) -> int:
        """Smallest power-of-two prefill length up to *max_len* that
        *policy* keeps on the SoC (``max_len + 1`` when none is)."""
        length = 1
        while length <= max_len:
            if self.price_prefill(policy, length).resource == "soc":
                return length
            length *= 2
        return max_len + 1

    # ------------------------------------------------------------------
    # policies
    # ------------------------------------------------------------------

    def run_query(
        self,
        policy: str,
        prefill_len: int,
        decode_len: int,
        dynamic_offload: Optional[bool] = None,
    ) -> QueryLatency:
        """Price one query under *policy*.

        ``dynamic_offload`` is FACIL's prefill-length-based SoC/PIM
        choice (defaults to True, matching the paper's dataset
        experiments); ``False`` keeps FACIL's prefill on the SoC.
        Hybrid-dynamic always makes the choice.
        """
        on_pim = decode_on_pim(policy)
        decode = self.decode_total_ns(prefill_len, decode_len, on_pim)
        allow_pim = policy != "facil" or dynamic_offload is None or bool(dynamic_offload)
        prefill = self.price_prefill(policy, prefill_len, allow_pim=allow_pim)
        breakdown = prefill.breakdown()
        breakdown["decode_pim" if on_pim else "decode_soc"] = decode
        return QueryLatency(
            policy=policy,
            prefill_tokens=prefill_len,
            decode_tokens=decode_len,
            ttft_ns=prefill.total_ns,
            ttlt_ns=prefill.total_ns + decode,
            breakdown=breakdown,
        )
