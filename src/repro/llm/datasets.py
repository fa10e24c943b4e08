"""Dataset length-trace generators (paper §VI-C substitution).

The paper samples 1 % / 10 % of Alpaca (conversation) and of the
RealHumanEval "autocompletion" subset, tokenizes, and uses the resulting
(input, output) token counts.  We cannot ship those datasets, but Figures
15 and 16 depend only on the *joint length distribution* — so each
workload here is a deterministic sampler with lognormal marginals matched
to the datasets' published statistics:

* **Alpaca**: instruction-style prompts are short (median ~20-40 tokens)
  while the GPT-3.5 responses are long (median ~65, heavy tail to several
  hundred) — conversation queries are decode-dominated.
* **RealHumanEval autocompletion**: requests fire as the programmer
  types, with a *small* incremental context window per request and a
  short completion (a line or a few) — the trace skews to small prefill
  and small decode lengths.  (The paper's own observation that FACIL
  beats even SoC-only TTFT "because the dataset contains queries with
  small prefill length" pins this regime down.)

See DESIGN.md "Substitutions" for why this preserves the experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = [
    "QueryTrace",
    "DatasetSpec",
    "DriftingDatasetSpec",
    "ALPACA_LIKE",
    "HUMANEVAL_AUTOCOMPLETE_LIKE",
    "CHAT_TO_LONG_CONTEXT_DRIFT",
    "sample_trace",
]


@dataclass(frozen=True)
class QueryTrace:
    """One query's token counts."""

    prefill_tokens: int
    decode_tokens: int


@dataclass(frozen=True)
class DatasetSpec:
    """Lognormal joint length model of a dataset.

    ``mu``/``sigma`` are the log-space parameters; lengths are clipped to
    ``[min, max]`` to mimic tokenizer/output-limit truncation.
    """

    name: str
    prefill_mu: float
    prefill_sigma: float
    prefill_min: int
    prefill_max: int
    decode_mu: float
    decode_sigma: float
    decode_min: int
    decode_max: int

    def sample(self, n: int, seed: int = 0) -> List[QueryTrace]:
        rng = np.random.default_rng(seed)
        prefill = np.exp(
            rng.normal(self.prefill_mu, self.prefill_sigma, size=n)
        ).astype(int)
        decode = np.exp(
            rng.normal(self.decode_mu, self.decode_sigma, size=n)
        ).astype(int)
        prefill = np.clip(prefill, self.prefill_min, self.prefill_max)
        decode = np.clip(decode, self.decode_min, self.decode_max)
        return [QueryTrace(int(p), int(d)) for p, d in zip(prefill, decode)]

    def sample_one(self, rng: random.Random) -> QueryTrace:
        """Draw one query through an injected seeded ``random.Random`` —
        the serving workload generator shares a single stream for arrival
        times and lengths so one seed reproduces a whole run."""
        prefill = int(rng.lognormvariate(self.prefill_mu, self.prefill_sigma))
        decode = int(rng.lognormvariate(self.decode_mu, self.decode_sigma))
        prefill = min(max(prefill, self.prefill_min), self.prefill_max)
        decode = min(max(decode, self.decode_min), self.decode_max)
        return QueryTrace(prefill, decode)


@dataclass(frozen=True)
class DriftingDatasetSpec:
    """A dataset whose length distribution *drifts* over the trace.

    Real on-device traffic is non-stationary: a keyboard session turns
    into document summarization, a chat accumulates context through the
    day.  This spec models the simplest such shift — a linear crossfade
    of the lognormal parameters from ``before`` to ``after`` across the
    window ``[drift_start_ms, drift_end_ms]`` of trace time.  It is the
    workload the adaptive remapping controller (see repro.adaptive)
    exists for: the ideal FACIL MapID of the hot shapes moves mid-run,
    so a statically selected mapping goes stale.

    Duck-types :class:`DatasetSpec`'s sampling surface and adds
    :meth:`sample_at`; time-blind callers that only use
    :meth:`sample_one` see the pre-drift distribution, so the spec is
    safe to hand to any existing workload generator (it just won't
    drift there).  Draw discipline matches :class:`DatasetSpec` exactly
    — two lognormal draws per query, no extra stream consumption — so
    swapping a static spec for a drifting one with the same ``before``
    parameters reproduces the same pre-drift queries byte for byte.
    """

    name: str
    before: DatasetSpec
    after: DatasetSpec
    drift_start_ms: float
    drift_end_ms: float

    def __post_init__(self) -> None:
        if not self.drift_end_ms > self.drift_start_ms >= 0.0:
            raise ValueError("need drift_end_ms > drift_start_ms >= 0")

    def weight_after(self, t_ns: float) -> float:
        """Mixing weight of the ``after`` phase at trace time *t_ns*
        (0 before the drift window, 1 past it, linear inside)."""
        start_ns = self.drift_start_ms * 1e6
        end_ns = self.drift_end_ms * 1e6
        if t_ns <= start_ns:
            return 0.0
        if t_ns >= end_ns:
            return 1.0
        return (t_ns - start_ns) / (end_ns - start_ns)

    def spec_at(self, t_ns: float) -> DatasetSpec:
        """The stationary :class:`DatasetSpec` in effect at *t_ns*."""
        w = self.weight_after(t_ns)
        if w <= 0.0:
            return self.before
        if w >= 1.0:
            return self.after
        b, a = self.before, self.after

        def lerp(x: float, y: float) -> float:
            return x + (y - x) * w

        return DatasetSpec(
            name=f"{self.name}@{w:.3f}",
            prefill_mu=lerp(b.prefill_mu, a.prefill_mu),
            prefill_sigma=lerp(b.prefill_sigma, a.prefill_sigma),
            prefill_min=round(lerp(b.prefill_min, a.prefill_min)),
            prefill_max=round(lerp(b.prefill_max, a.prefill_max)),
            decode_mu=lerp(b.decode_mu, a.decode_mu),
            decode_sigma=lerp(b.decode_sigma, a.decode_sigma),
            decode_min=round(lerp(b.decode_min, a.decode_min)),
            decode_max=round(lerp(b.decode_max, a.decode_max)),
        )

    def sample_at(self, rng: random.Random, t_ns: float) -> QueryTrace:
        """Draw one query as of trace time *t_ns* (same two-draw
        discipline as :meth:`DatasetSpec.sample_one`)."""
        return self.spec_at(t_ns).sample_one(rng)

    def sample_one(self, rng: random.Random) -> QueryTrace:
        """Time-blind draw — the pre-drift distribution."""
        return self.sample_at(rng, 0.0)

    def sample(self, n: int, seed: int = 0, t_ns: float = 0.0) -> List[QueryTrace]:
        """Deterministic batch draw frozen at trace time *t_ns*."""
        return self.spec_at(t_ns).sample(n, seed)


#: Conversation assistant (Alpaca-like): short prompts, long answers.
ALPACA_LIKE = DatasetSpec(
    name="alpaca-like",
    prefill_mu=np.log(24.0),
    prefill_sigma=0.7,
    prefill_min=4,
    prefill_max=256,
    decode_mu=np.log(64.0),
    decode_sigma=0.8,
    decode_min=8,
    decode_max=512,
)

#: Code autocompletion (RealHumanEval-like): small incremental contexts,
#: short completions.
HUMANEVAL_AUTOCOMPLETE_LIKE = DatasetSpec(
    name="humaneval-autocomplete-like",
    prefill_mu=np.log(12.0),
    prefill_sigma=0.9,
    prefill_min=2,
    prefill_max=512,
    decode_mu=np.log(10.0),
    decode_sigma=0.7,
    decode_min=2,
    decode_max=64,
)


#: Canonical drifting workload for the adaptive-remapping experiments: a
#: chat tenant whose prompts grow from short instructions (~800 tokens
#: with accumulated context, ideal FACIL MapID 3 on the adaptive-arena
#: geometry — exactly what the static selector picked) into long-context
#: document turns (~3000 tokens, ideal MapID 5) across minute two of the
#: trace.  The tight sigmas keep each phase's ideal MapID unambiguous,
#: so the drift is a clean regime change rather than noise.  The long
#: turns also draw long answers (summaries), so post-drift traffic is
#: decode-heavy — PIM-bound — and a stale mapping's PU-crossing penalty
#: lands on the bottleneck resource instead of hiding behind the SoC
#: prefill.  Use ``dataclasses.replace`` to move the drift window.
CHAT_TO_LONG_CONTEXT_DRIFT = DriftingDatasetSpec(
    name="chat-to-long-context",
    before=DatasetSpec(
        name="chat-short-context",
        prefill_mu=np.log(800.0),
        prefill_sigma=0.12,
        prefill_min=520,
        prefill_max=1024,
        decode_mu=np.log(24.0),
        decode_sigma=0.5,
        decode_min=8,
        decode_max=64,
    ),
    after=DatasetSpec(
        name="chat-long-context",
        prefill_mu=np.log(3000.0),
        prefill_sigma=0.12,
        prefill_min=2100,
        prefill_max=4096,
        decode_mu=np.log(96.0),
        decode_sigma=0.5,
        decode_min=16,
        decode_max=256,
    ),
    drift_start_ms=60_000.0,
    drift_end_ms=120_000.0,
)


def sample_trace(spec: DatasetSpec, n: int = 100, seed: int = 0) -> List[QueryTrace]:
    """Deterministic sample of *n* queries from *spec*."""
    return spec.sample(n, seed)
