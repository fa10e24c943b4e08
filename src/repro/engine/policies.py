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

Each policy is one frozen :class:`Policy` record in
:data:`POLICY_TABLE`.  Every site that depends on a policy reads the
record's fields (:func:`policy_record`), never its name, so a new
policy is one more record.

All latencies come from the substrate models: the SoC roofline, the PIM
command-level GEMV model, and the re-layout cost model.
A prefill is placed on a unit and priced only by
:meth:`InferenceEngine.price_prefill`; a decode is summed only by
:meth:`InferenceEngine.decode_total_ns`, over the engine's per-unit table
of decode-step prices.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional

from repro.core.relayout import relayout_cost_ns
from repro.core.selector import select_mapping
from repro.engine.metrics import QueryLatency
from repro.llm.inference import AttentionCost, attention_cost
from repro.llm.layers import LinearSpec, linear_specs
from repro.llm.model_config import LlmConfig, model_by_name
from repro.pim.gemv import GemvLatency, gemv_latency
from repro.platforms.specs import PlatformSpec
from repro.soc.processor import SocProcessor

__all__ = [
    "InferenceEngine", "POLICIES", "POLICY_TABLE", "Policy", "PrefillPrice",
    "decode_on_pim", "policy_record",
]


@dataclass(frozen=True)
class Policy:
    """The facts that tell one execution policy from another."""

    name: str
    #: the weights sit in the PIM layout while the SoC GEMM needs the
    #: conventional one: each prefill on the SoC re-lays out first
    relayout: bool = False
    #: a prefill moves to PIM when PIM is allowed and strictly faster
    offload: bool = False
    #: decode GEMVs run on the PIM units, so the policy needs healthy
    #: PIM hardware: its routes consult the PIM breaker and brown-out
    decode_on_pim: bool = True
    #: the SoC GEMM reads the PIM layout through the flexible mapping:
    #: it pays the Table III slowdown and exercises the ``mapping``
    #: fault component
    pim_layout: bool = False
    #: the policy served instead while the mapping path is down
    mapping_fallback: Optional[str] = None

    def component(self, resource: str) -> str:
        """The fault component a GEMM phase on *resource* exercises: PIM
        work is ``pim``; a SoC GEMM on the PIM layout is ``mapping``;
        else ``soc``."""
        if resource == "pim":
            return "pim"
        return "mapping" if self.pim_layout else "soc"


#: every policy by name, in the order of the paper's figures
POLICY_TABLE: Mapping[str, Policy] = MappingProxyType({
    record.name: record
    for record in (
        Policy("soc-only", decode_on_pim=False),
        Policy("hybrid-static", relayout=True),
        Policy("hybrid-dynamic", relayout=True, offload=True),
        Policy("facil", offload=True, pim_layout=True, mapping_fallback="hybrid-static"),
    )
})
POLICIES = tuple(POLICY_TABLE)


def policy_record(name: str) -> Policy:
    """The record of the policy called *name*; an unknown name raises a
    ``ValueError`` listing the known ones."""
    try:
        return POLICY_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; known: {POLICIES}") from None


def decode_on_pim(policy: str) -> bool:
    """True when *policy* runs its decode GEMVs on the PIM units (i.e. it
    needs healthy PIM hardware for its normal decode path)."""
    return policy_record(policy).decode_on_pim

#: Per-offloaded-op dispatch overhead for PIM command streams.
PIM_DISPATCH_NS = 2_000.0


def _length(name: str, value: int) -> int:
    """*value* as an ``int`` (numpy integers included); a float or any
    other non-integer raises a ``TypeError`` naming *name*."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


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
        # The context-free part of one decode step, summed in
        # ``linear_specs`` order: the linear GEMVs, plus dispatch and the
        # partial-sum reduction on PIM.
        soc_gemv_ns = 0.0
        pim_gemv_ns = 0.0
        reduce_bytes = 0.0
        for cost in self._costs.values():
            spec = cost.spec
            soc_gemv_ns += spec.count * self.soc.gemv_time_ns(
                spec.out_features, spec.in_features, spec.dtype_bytes
            )
            pim_gemv_ns += spec.count * (cost.pim_gemv.total_ns + PIM_DISPATCH_NS)
            reduce_bytes += spec.count * cost.pim_gemv.soc_reduce_bytes
        self._soc_step_linear_ns = soc_gemv_ns
        self._pim_step_linear_ns = pim_gemv_ns + self.soc.stream_time_ns(reduce_bytes)
        # Per unit, entry ``c`` prices one decode step over ``c`` cached
        # tokens (entry 0 is never read), grown on demand.  These tables
        # are the only decode-step memo: steps and whole decodes read them.
        self._soc_steps: List[float] = [math.nan]
        self._pim_steps: List[float] = [math.nan]
        # Prefills repeat the same lengths across queries and sweeps;
        # memoize the pure pricing functions per engine instance.
        self.soc_prefill_ns = functools.lru_cache(maxsize=None)(self.soc_prefill_ns)
        self.pim_prefill_ns = functools.lru_cache(maxsize=None)(self.pim_prefill_ns)

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
        if prefill_len <= 0:
            raise ValueError("prefill length must be positive")
        if context < 0:
            raise ValueError(f"context must be non-negative, got {context}")
        gemm_ns = 0.0
        for cost in self._costs.values():
            spec = cost.spec
            n = self._gemm_batch(spec, prefill_len)
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
        if prefill_len <= 0:
            raise ValueError("prefill length must be positive")
        gemv_ns = 0.0
        reduce_bytes = 0.0
        for cost in self._costs.values():
            spec = cost.spec
            n = self._gemm_batch(spec, prefill_len)
            gemv_ns += spec.count * (n * cost.pim_gemv.total_ns + PIM_DISPATCH_NS)
            reduce_bytes += spec.count * n * cost.pim_gemv.soc_reduce_bytes
        reduce_ns = self.soc.stream_time_ns(reduce_bytes)
        attention = attention_cost(self.model, prefill_len, prefill_len)
        return gemv_ns + reduce_ns + self._attention_ns(attention)

    def _step_table(self, on_pim: bool, last_context: int) -> List[float]:
        """The decode-step table of one unit, grown to cover
        *last_context*: each new entry is the unit's linear constant plus
        the attention over that many cached tokens."""
        if on_pim:
            table, linear_ns = self._pim_steps, self._pim_step_linear_ns
        else:
            table, linear_ns = self._soc_steps, self._soc_step_linear_ns
        if len(table) <= last_context:
            table.extend(
                linear_ns + self._attention_ns(attention_cost(self.model, 1, context))
                for context in range(len(table), last_context + 1)
            )
        return table

    def _decode_step_ns(self, context_len: int, on_pim: bool) -> float:
        """A step the table may not cover yet: validate *context_len*,
        grow the table, read one entry."""
        context_len = _length("context_len", context_len)
        if context_len <= 0:
            raise ValueError("context length must be positive")
        return self._step_table(on_pim, context_len)[context_len]

    # The step methods read a covered entry inline: batched decode looks
    # up one step per sequence per round.
    def soc_decode_step_ns(self, context_len: int) -> float:
        """One decode step entirely on the SoC, *context_len* tokens
        already in the KV cache."""
        steps = self._soc_steps
        if type(context_len) is int and 0 < context_len < len(steps):
            return steps[context_len]
        return self._decode_step_ns(context_len, False)

    def pim_decode_step_ns(self, context_len: int) -> float:
        """One decode step with linear GEMVs on PIM; attention, glue, and
        partial-sum reduction on the SoC."""
        steps = self._pim_steps
        if type(context_len) is int and 0 < context_len < len(steps):
            return steps[context_len]
        return self._decode_step_ns(context_len, True)

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

        The SoC path is the re-layout (``relayout`` policies) followed by
        the SoC prefill, on the PIM layout for a ``pim_layout`` policy.
        An ``offload`` policy moves the prefill to PIM when that is
        strictly faster and *allow_pim* holds; ties stay on the SoC.
        This is the one place a policy decides where its prefill runs
        and what it pays.
        """
        record = policy_record(policy)
        if prefill_len <= 0:
            raise ValueError("prefill length must be positive")
        relayout = self.relayout_total_ns() if record.relayout else 0.0
        soc = PrefillPrice(
            "soc", self.soc_prefill_ns(prefill_len, record.pim_layout, context), relayout
        )
        if allow_pim and record.offload:
            pim_ns = self.pim_prefill_ns(prefill_len)
            if pim_ns < soc.total_ns:
                return PrefillPrice("pim", pim_ns)
        return soc

    def decode_total_ns(
        self, prefill_len: int, decode_len: int, on_pim: bool
    ) -> float:
        """Price the decode phase on the given unit: steps 2..D (the
        first token comes from prefill), over contexts ``prefill_len + 1``
        to ``prefill_len + decode_len - 1``, summed in context order."""
        prefill_len = _length("prefill_len", prefill_len)
        decode_len = _length("decode_len", decode_len)
        if prefill_len <= 0 or decode_len <= 0:
            raise ValueError("prefill and decode lengths must be positive")
        end = prefill_len + decode_len
        return sum(self._step_table(on_pim, end - 1)[prefill_len + 1 : end])

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
        if max_len < 1:
            raise ValueError(f"max_len must be at least 1, got {max_len}")
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
        experiments); ``False`` keeps the prefill of a ``pim_layout``
        policy on the SoC.  Hybrid-dynamic always makes the choice.
        """
        record = policy_record(policy)
        on_pim = record.decode_on_pim
        decode = self.decode_total_ns(prefill_len, decode_len, on_pim)
        allow_pim = not record.pim_layout or dynamic_offload is None or bool(dynamic_offload)
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
