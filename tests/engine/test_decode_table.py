"""Differential oracle for the engine's decode-step tables.

``InferenceEngine`` prices a decode step as a per-unit constant (the
linear GEMVs, plus dispatch and the partial-sum reduction on PIM) plus
the attention over the step's context, and keeps one table of step
prices per unit; ``decode_total_ns`` sums a slice of it.  The reference
below is the plan-based pricing those tables replaced: each step
rebuilds ``decode_step_plan`` and sums its linears, each prefill rebuilds
``prefill_plan``, and a decode is a generator sum over the steps.  Every
value must match it exactly (``==``), on every platform of the Table II
catalog and both units, whatever order the table is grown in.
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest

from repro.engine.policies import PIM_DISPATCH_NS, InferenceEngine
from repro.llm.inference import (
    AttentionCost,
    attention_cost,
    decode_step_plan,
    prefill_plan,
)
from repro.platforms.specs import ALL_PLATFORMS

#: random (prefill, decode) pairs per engine; the largest context priced
#: is MAX_PREFILL + MAX_DECODE - 1
N_PAIRS = 240
MAX_PREFILL = 2048
MAX_DECODE = 512


class ReferencePricing:
    """The plan-based step, prefill and decode pricing, per engine."""

    def __init__(self, engine: InferenceEngine):
        self.engine = engine
        self.soc_decode_step_ns = functools.lru_cache(maxsize=None)(self.soc_decode_step_ns)
        self.pim_decode_step_ns = functools.lru_cache(maxsize=None)(self.pim_decode_step_ns)

    def _attention_ns(self, attention: AttentionCost) -> float:
        soc = self.engine.soc
        base = soc.op_time_ns(attention.flops, attention.bytes_moved)
        return base + (attention.n_kernels - 1) * soc.kernel_launch_ns

    def soc_decode_step_ns(self, context_len: int) -> float:
        soc = self.engine.soc
        plan = decode_step_plan(self.engine.model, context_len)
        gemv_ns = 0.0
        for spec in plan.linears:
            gemv_ns += spec.count * soc.gemv_time_ns(
                spec.out_features, spec.in_features, spec.dtype_bytes
            )
        return gemv_ns + self._attention_ns(plan.attention)

    def pim_decode_step_ns(self, context_len: int) -> float:
        plan = decode_step_plan(self.engine.model, context_len)
        gemv_ns = 0.0
        reduce_bytes = 0.0
        for spec in plan.linears:
            cost = self.engine._costs[spec.name]
            gemv_ns += spec.count * (cost.pim_gemv.total_ns + PIM_DISPATCH_NS)
            reduce_bytes += spec.count * cost.pim_gemv.soc_reduce_bytes
        reduce_ns = self.engine.soc.stream_time_ns(reduce_bytes)
        return gemv_ns + reduce_ns + self._attention_ns(plan.attention)

    def decode_total_ns(self, prefill_len: int, decode_len: int, on_pim: bool) -> float:
        step = self.pim_decode_step_ns if on_pim else self.soc_decode_step_ns
        return sum(step(prefill_len + t) for t in range(1, decode_len))

    def soc_prefill_ns(self, prefill_len: int, pim_layout: bool, context: int) -> float:
        engine = self.engine
        plan = prefill_plan(engine.model, prefill_len)
        gemm_ns = 0.0
        for spec in plan.linears:
            n = 1 if spec.name == "lm_head" else plan.batch_tokens
            gemm_ns += spec.count * engine.soc.gemm_time_ns(
                spec.out_features, n, spec.in_features, spec.dtype_bytes
            )
        if pim_layout:
            gemm_ns *= 1.0 + engine.platform.gemm_layout_slowdown
        attention = attention_cost(engine.model, prefill_len, context + prefill_len)
        return gemm_ns + self._attention_ns(attention)

    def pim_prefill_ns(self, prefill_len: int) -> float:
        engine = self.engine
        plan = prefill_plan(engine.model, prefill_len)
        gemv_ns = 0.0
        reduce_bytes = 0.0
        for spec in plan.linears:
            cost = engine._costs[spec.name]
            n = 1 if spec.name == "lm_head" else plan.batch_tokens
            gemv_ns += spec.count * (n * cost.pim_gemv.total_ns + PIM_DISPATCH_NS)
            reduce_bytes += spec.count * n * cost.pim_gemv.soc_reduce_bytes
        reduce_ns = engine.soc.stream_time_ns(reduce_bytes)
        return gemv_ns + reduce_ns + self._attention_ns(plan.attention)


def _platform_id(platform) -> str:
    return platform.name


@pytest.mark.parametrize("platform", ALL_PLATFORMS, ids=_platform_id)
def test_decode_matches_plan_pricing_in_any_order(platform):
    """Whole decodes and single steps, visited in random order on a
    fresh engine, so each table grows out of order."""
    engine = InferenceEngine(platform)
    reference = ReferencePricing(engine)
    rng = random.Random(f"decode-table-{platform.name}")
    pairs = [
        (rng.randint(1, MAX_PREFILL), rng.randint(1, MAX_DECODE), on_pim)
        for on_pim in (False, True)
        for _ in range(N_PAIRS // 2)
    ]
    pairs += [(1, 1, False), (1, 1, True), (1, 2, True), (MAX_PREFILL, MAX_DECODE, True)]
    rng.shuffle(pairs)
    for prefill_len, decode_len, on_pim in pairs:
        assert engine.decode_total_ns(prefill_len, decode_len, on_pim) == (
            reference.decode_total_ns(prefill_len, decode_len, on_pim)
        ), (prefill_len, decode_len, on_pim)
        for _ in range(2):
            context = rng.randint(1, MAX_PREFILL + MAX_DECODE + 64)
            assert engine.soc_decode_step_ns(context) == reference.soc_decode_step_ns(context)
            assert engine.pim_decode_step_ns(context) == reference.pim_decode_step_ns(context)


@pytest.mark.parametrize("platform", ALL_PLATFORMS, ids=_platform_id)
def test_prefill_primitives_match_plan_pricing(platform):
    engine = InferenceEngine(platform)
    reference = ReferencePricing(engine)
    for prefill_len in (1, 2, 7, 64, 255, 1024):
        assert engine.pim_prefill_ns(prefill_len) == reference.pim_prefill_ns(prefill_len)
        for pim_layout in (False, True):
            for context in (0, 1, 100, 2000):
                assert engine.soc_prefill_ns(prefill_len, pim_layout, context) == (
                    reference.soc_prefill_ns(prefill_len, pim_layout, context)
                ), (prefill_len, pim_layout, context)


class TestLengthsMustBeIntegers:
    @pytest.fixture(scope="class")
    def engine(self):
        return InferenceEngine(ALL_PLATFORMS[0])

    @pytest.mark.parametrize(
        "args, name",
        [((10.5, 5, True), "prefill_len"), ((10, 5.0, False), "decode_len"),
         (("10", 5, True), "prefill_len")],
    )
    def test_decode_total_rejects_non_integers(self, engine, args, name):
        with pytest.raises(TypeError, match=name):
            engine.decode_total_ns(*args)

    @pytest.mark.parametrize("method", ["soc_decode_step_ns", "pim_decode_step_ns"])
    @pytest.mark.parametrize("context", [10.5, 3.0, None])
    def test_steps_reject_non_integers(self, engine, method, context):
        with pytest.raises(TypeError, match="context_len"):
            getattr(engine, method)(context)

    def test_numpy_integers_price_like_ints(self, engine):
        assert engine.decode_total_ns(np.int64(10), np.int32(5), True) == (
            engine.decode_total_ns(10, 5, True)
        )
        assert engine.soc_decode_step_ns(np.int64(33)) == engine.soc_decode_step_ns(33)

    @pytest.mark.parametrize("method", ["soc_decode_step_ns", "pim_decode_step_ns"])
    def test_steps_reject_empty_context(self, engine, method):
        for context in (0, -3):
            with pytest.raises(ValueError, match="context length must be positive"):
                getattr(engine, method)(context)
