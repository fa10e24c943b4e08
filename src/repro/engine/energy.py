"""Per-query energy accounting across execution policies (extension).

Prices the DRAM-side energy of each policy's data movement:

* SoC GEMM/GEMV: every weight/activation byte pays array access *and*
  external I/O energy;
* re-layout (hybrid baseline): a full read + write of every matrix —
  pure waste FACIL eliminates;
* PIM GEMV: weight bytes stay inside the die (array + MAC energy only);
  only inputs/outputs cross the bus.

SoC compute energy is included with a per-FLOP constant so the numbers
are end-to-end comparable, but the interesting deltas are DRAM-side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dram.energy import DramEnergyModel, LPDDR5_ENERGY, gemv_energy_pj
from repro.engine.policies import InferenceEngine, policy_record
from repro.llm.inference import AttentionCost, attention_cost

__all__ = ["EnergyModel", "QueryEnergy", "query_energy"]

#: FP16 MAC energy on a mobile GPU/NPU, pJ per FLOP (ballpark).
SOC_PJ_PER_FLOP = 0.6


@dataclass(frozen=True)
class EnergyModel:
    dram: DramEnergyModel = LPDDR5_ENERGY
    soc_pj_per_flop: float = SOC_PJ_PER_FLOP
    #: activations per byte accessed through the conventional path; the
    #: streams are row-friendly, one ACT per DRAM row.
    row_bytes: int = 2048

    def soc_stream_pj(self, nbytes: float, write_fraction: float = 0.0) -> float:
        acts = nbytes / self.row_bytes
        reads = nbytes * (1.0 - write_fraction)
        writes = nbytes * write_fraction
        return (
            acts * self.dram.act_pj
            + self.dram.read_pj(reads)
            + self.dram.write_pj(writes)
        )


@dataclass(frozen=True)
class QueryEnergy:
    """Millijoule breakdown of one query."""

    policy: str
    prefill_mj: float
    relayout_mj: float
    decode_mj: float

    @property
    def total_mj(self) -> float:
        return self.prefill_mj + self.relayout_mj + self.decode_mj


def _linear_pj(
    engine: InferenceEngine, batch: int, on_pim: bool, model: EnergyModel
) -> float:
    """The linear ops of one phase over *batch* tokens, summed in
    ``linear_specs`` order: SoC GEMMs stream weights and activations;
    PIM GEMVs keep the weights in the die."""
    org = engine.platform.dram.org
    total = 0.0
    for cost in engine._costs.values():
        spec = cost.spec
        n = engine._gemm_batch(spec, batch)
        if on_pim:
            input_bytes = spec.in_features * spec.dtype_bytes
            output_bytes = spec.out_features * 4  # FP32 partials
            total += spec.count * n * gemv_energy_pj(
                cost.pim_gemv, org.total_banks, input_bytes, output_bytes,
                model.dram,
            )
        else:
            weight = spec.bytes_per_instance
            act_bytes = (spec.in_features + spec.out_features) * n * spec.dtype_bytes
            flops = 2.0 * spec.out_features * n * spec.in_features
            total += spec.count * (
                model.soc_stream_pj(weight + act_bytes)
                + flops * model.soc_pj_per_flop
            )
    return total


def _phase_pj(linear_pj: float, attention: AttentionCost, model: EnergyModel) -> float:
    """A phase: its linear ops plus attention, which runs on the SoC."""
    return (
        linear_pj
        + model.soc_stream_pj(attention.bytes_moved)
        + attention.flops * model.soc_pj_per_flop
    )


def query_energy(
    engine: InferenceEngine,
    policy: str,
    prefill_len: int,
    decode_len: int,
    model: Optional[EnergyModel] = None,
) -> QueryEnergy:
    """Energy of one query under *policy* (same semantics as
    :meth:`InferenceEngine.run_query`, with every prefill on the SoC)."""
    record = policy_record(policy)
    if prefill_len <= 0 or decode_len <= 0:
        raise ValueError("prefill and decode lengths must be positive")
    model = model if model is not None else EnergyModel()

    relayout_pj = 0.0  # the hybrid baselines re-lay out before a SoC prefill
    if record.relayout:
        for cost in engine._costs.values():
            nbytes = cost.spec.bytes_per_instance
            relayout_pj += cost.spec.count * (
                model.soc_stream_pj(nbytes)  # read the PIM layout
                + model.soc_stream_pj(nbytes, write_fraction=1.0)  # write copy
            )

    prefill_pj = _phase_pj(
        _linear_pj(engine, prefill_len, False, model),
        attention_cost(engine.model, prefill_len, prefill_len), model,
    )

    # a decode step's linear ops are context-free: price them once
    step_pj = _linear_pj(engine, 1, record.decode_on_pim, model)
    decode_pj = 0.0
    for context in range(prefill_len + 1, prefill_len + decode_len):
        decode_pj += _phase_pj(step_pj, attention_cost(engine.model, 1, context), model)

    return QueryEnergy(
        policy=policy,
        prefill_mj=prefill_pj / 1e9,
        relayout_mj=relayout_pj / 1e9,
        decode_mj=decode_pj / 1e9,
    )
