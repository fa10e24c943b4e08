"""Multi-turn chat sessions (extension).

The paper evaluates single queries; real assistants hold conversations
where the KV cache persists across turns.  The consequence for the
baselines is stark: the hybrid-static baseline pays the **full re-layout
on every turn** (each turn has a prefill), while FACIL pays it never —
the gap grows linearly with conversation length.

:class:`ChatSession` prices successive turns with cumulative context:
turn *k*'s prefill GEMMs cover only the new user tokens, but attention
spans the whole conversation so far.  Each turn records the re-layout
cost it actually paid (:attr:`TurnLatency.relayout_ns`), so
:attr:`ChatSession.total_relayout_ns` stays correct across a mid-
conversation :meth:`set_policy` switch.

With a :class:`~repro.kvcache.manager.KvCacheManager` attached, the
session prices turns against the *managed* cache instead of assuming
perfect persistence: each turn admits a sequence keyed on the
conversation, the prefix-tree hit covers the full blocks of earlier
turns, and only the remainder (the new tokens plus the partial tail
block) is recomputed — the block-granular reality of paged KV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.engine.policies import InferenceEngine, decode_on_pim, policy_record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kvcache.manager import KvCacheManager
    from repro.telemetry.tracer import Tracer

__all__ = ["ChatSession", "TurnLatency"]


@dataclass(frozen=True)
class TurnLatency:
    """Latency of one conversation turn."""

    turn: int
    context_before: int
    user_tokens: int
    response_tokens: int
    ttft_ns: float
    ttlt_ns: float
    #: re-layout cost this turn actually paid (0 unless the policy
    #: serving *this turn* re-laid out the weights)
    relayout_ns: float = 0.0
    #: prefix-cache split of this turn's prefill (managed-KV mode only;
    #: without a manager, ``recomputed_tokens == user_tokens``)
    cached_tokens: int = 0
    recomputed_tokens: int = 0

    @property
    def ttft_ms(self) -> float:
        return self.ttft_ns / 1e6

    @property
    def ttlt_ms(self) -> float:
        return self.ttlt_ns / 1e6


class ChatSession:
    """Prices a conversation under one policy, with persistent KV cache."""

    def __init__(
        self,
        engine: InferenceEngine,
        policy: str,
        kv: Optional["KvCacheManager"] = None,
        conversation_id: int = 0,
        tracer: Optional["Tracer"] = None,
    ):
        policy_record(policy)
        self.engine = engine
        self.policy = policy
        self.context = 0
        self.turns: List[TurnLatency] = []
        self.kv = kv
        self.conversation_id = conversation_id
        #: optional span sink: each turn lands on the session's own
        #: back-to-back simulated timeline, trace id = conversation id
        self.tracer = tracer

    def set_policy(self, policy: str) -> None:
        """Switch the execution policy mid-conversation (the serving
        runtime does this when a circuit breaker or brownout forces
        decode off the PIM units).  The KV context carries over."""
        policy_record(policy)
        self.policy = policy

    # -- public API ------------------------------------------------------------

    def turn(self, user_tokens: int, response_tokens: int) -> TurnLatency:
        """Process one turn; the KV context persists into the next."""
        if user_tokens <= 0 or response_tokens <= 0:
            raise ValueError("token counts must be positive")
        engine = self.engine
        total = self.context + user_tokens
        cached = 0
        recompute = user_tokens
        seq_id = None
        now = float(len(self.turns))
        if self.kv is not None:
            seq_id = (self.conversation_id << 16) | len(self.turns)
            admission = self.kv.begin(seq_id, self.conversation_id, total, now)
            cached = admission.cached_tokens
            recompute = admission.recompute_tokens
        # attention spans the whole conversation: without a manager every
        # earlier token persists, with one only the prefix-tree hit does
        prefill = engine.price_prefill(
            self.policy, recompute,
            context=self.context if self.kv is None else cached,
        )
        ttft = prefill.total_ns
        decode = engine.decode_total_ns(
            total, response_tokens, decode_on_pim(self.policy)
        )
        if self.kv is not None and seq_id is not None:
            self.kv.commit(seq_id, recompute, now)
            self.kv.ensure_capacity(seq_id, response_tokens, now)
            self.kv.commit(seq_id, response_tokens, now)
            self.kv.release(seq_id, now, retain=True)
        result = TurnLatency(
            turn=len(self.turns) + 1,
            context_before=self.context,
            user_tokens=user_tokens,
            response_tokens=response_tokens,
            ttft_ns=ttft,
            ttlt_ns=ttft + decode,
            relayout_ns=prefill.relayout_ns,
            cached_tokens=cached,
            recomputed_tokens=recompute,
        )
        if self.tracer is not None:
            start_ns = self.total_ns
            root = self.tracer.begin(
                self.conversation_id,
                f"turn.{result.turn}",
                "engine",
                start_ns,
                policy=self.policy,
                context_before=self.context,
                cached_tokens=cached,
            )
            if root is not None:
                root.record("turn.prefill", "engine", start_ns, start_ns + ttft)
                if decode > 0.0:
                    root.record(
                        "turn.decode", "engine",
                        start_ns + ttft, start_ns + ttft + decode,
                    )
                root.close(start_ns + result.ttlt_ns)
        self.turns.append(result)
        self.context += user_tokens + response_tokens
        return result

    @property
    def total_ns(self) -> float:
        return sum(t.ttlt_ns for t in self.turns)

    @property
    def total_relayout_ns(self) -> float:
        """Cumulative re-layout cost actually paid so far.

        Summed from the per-turn records, so turns priced before a
        :meth:`set_policy` switch keep the cost of the policy that
        served them (the previous implementation re-priced history
        against the *current* policy)."""
        return sum(t.relayout_ns for t in self.turns)
