"""Tests for multi-turn chat sessions."""

import pytest

from repro.engine.policies import POLICIES, InferenceEngine
from repro.engine.session import ChatSession
from repro.kvcache import BlockPool, KvCacheManager, KvSpec
from repro.platforms.specs import IPHONE_15_PRO, JETSON_ORIN


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(JETSON_ORIN)


class TestSessionMechanics:
    def test_context_accumulates(self, engine):
        session = ChatSession(engine, "facil")
        session.turn(10, 20)
        assert session.context == 30
        session.turn(5, 5)
        assert session.context == 40
        assert len(session.turns) == 2

    def test_turn_metadata(self, engine):
        session = ChatSession(engine, "facil")
        first = session.turn(10, 20)
        second = session.turn(8, 16)
        assert first.turn == 1 and second.turn == 2
        assert second.context_before == 30

    def test_bad_policy_rejected(self, engine):
        with pytest.raises(ValueError):
            ChatSession(engine, "quantum")

    def test_bad_tokens_rejected(self, engine):
        session = ChatSession(engine, "facil")
        with pytest.raises(ValueError):
            session.turn(0, 5)


class TestSessionCosts:
    def test_later_turns_cost_more_decode(self, engine):
        """Attention over the growing KV cache makes per-turn TTLT creep
        upward even at fixed turn sizes."""
        session = ChatSession(engine, "facil")
        first = session.turn(16, 32)
        for _ in range(4):
            last = session.turn(16, 32)
        assert last.ttlt_ns > first.ttlt_ns

    def test_static_baseline_pays_relayout_every_turn(self, engine):
        static = ChatSession(engine, "hybrid-static")
        facil = ChatSession(engine, "facil")
        for _ in range(4):
            static.turn(16, 32)
            facil.turn(16, 32)
        gap = static.total_ns - facil.total_ns
        assert gap > 3 * engine.relayout_total_ns()
        assert static.total_relayout_ns == 4 * engine.relayout_total_ns()
        assert facil.total_relayout_ns == 0.0

    def test_facil_ttft_stable_across_turns(self, engine):
        """The user-facing point: FACIL's TTFT stays ~flat across a
        conversation; the static baseline's stays inflated every turn."""
        facil = ChatSession(engine, "facil")
        static = ChatSession(engine, "hybrid-static")
        for _ in range(5):
            f = facil.turn(24, 48)
            s = static.turn(24, 48)
        assert s.ttft_ns > 2 * f.ttft_ns

    def test_incremental_prefill_cheaper_than_full(self, engine):
        """Turn 2's prefill covers only the new tokens (the KV cache
        already holds the conversation)."""
        session = ChatSession(engine, "soc-only")
        session.turn(64, 64)
        second = session.turn(8, 8)
        fresh = ChatSession(engine, "soc-only")
        fresh_big = fresh.turn(136, 8)
        assert second.ttft_ns <= fresh_big.ttft_ns

    def test_dynamic_policy_at_least_as_good_as_static(self, engine):
        static = ChatSession(engine, "hybrid-static")
        dynamic = ChatSession(engine, "hybrid-dynamic")
        for _ in range(3):
            s = static.turn(4, 16)
            d = dynamic.turn(4, 16)
            assert d.ttft_ns <= s.ttft_ns + 1e-6


class TestPolicySwitch:
    def test_relayout_total_survives_mid_conversation_switch(self, engine):
        """Regression: total_relayout_ns used to be re-priced against the
        *current* policy (len(turns) * relayout), so switching away from
        hybrid-static zeroed — and switching to it inflated — history."""
        relayout = engine.relayout_total_ns()
        session = ChatSession(engine, "hybrid-static")
        session.turn(16, 32)
        session.turn(16, 32)
        assert session.total_relayout_ns == 2 * relayout
        session.set_policy("facil")
        session.turn(16, 32)
        session.turn(16, 32)
        # the two static turns keep their cost; the facil turns add none
        assert session.total_relayout_ns == 2 * relayout

    def test_switch_into_static_only_charges_new_turns(self, engine):
        relayout = engine.relayout_total_ns()
        session = ChatSession(engine, "soc-only")
        session.turn(16, 32)
        session.set_policy("hybrid-static")
        session.turn(16, 32)
        assert session.total_relayout_ns == relayout
        assert session.turns[0].relayout_ns == 0.0
        assert session.turns[1].relayout_ns == relayout

    def test_bad_policy_switch_rejected(self, engine):
        session = ChatSession(engine, "facil")
        with pytest.raises(ValueError):
            session.set_policy("quantum")


class TestManagedKv:
    def make_kv(self, num_blocks=64, block_tokens=16):
        pool = BlockPool(num_blocks, KvSpec(block_tokens=block_tokens))
        return KvCacheManager(pool)

    def test_later_turns_hit_the_block_cache(self, engine):
        kv = self.make_kv()
        session = ChatSession(engine, "facil", kv=kv, conversation_id=3)
        first = session.turn(32, 32)
        assert first.cached_tokens == 0
        assert first.recomputed_tokens == 32
        second = session.turn(16, 16)
        # turn 1's 64 tokens were published as four full 16-token blocks
        assert second.cached_tokens == 64
        assert second.recomputed_tokens == 16
        assert kv.audit() == []

    def test_partial_tail_blocks_are_recomputed(self, engine):
        kv = self.make_kv()
        session = ChatSession(engine, "facil", kv=kv, conversation_id=4)
        session.turn(20, 20)  # 40 tokens: two full blocks + a partial
        second = session.turn(8, 8)
        assert second.cached_tokens == 32
        assert second.recomputed_tokens == (40 - 32) + 8

    def test_managed_cache_never_beats_perfect_persistence(self, engine):
        """The unmanaged session assumes every past token stays cached;
        the managed one recomputes partial tails — so its prefills can
        only be equal or larger."""
        kv = self.make_kv()
        managed = ChatSession(engine, "facil", kv=kv, conversation_id=5)
        perfect = ChatSession(engine, "facil")
        for _ in range(4):
            m = managed.turn(20, 20)
            p = perfect.turn(20, 20)
            assert m.ttft_ns >= p.ttft_ns - 1e-6

    @pytest.mark.parametrize("platform", [JETSON_ORIN, IPHONE_15_PRO],
                             ids=lambda p: p.name)
    def test_block_aligned_turns_price_like_perfect_persistence(self, platform):
        """Turns of 24 + 40 tokens end on a 16-token block boundary, so
        the managed cache holds the whole conversation: both sessions
        price prefill attention over the same context, exactly."""
        engine = InferenceEngine(platform)
        for policy in POLICIES:
            managed = ChatSession(engine, policy, kv=self.make_kv(),
                                  conversation_id=6)
            perfect = ChatSession(engine, policy)
            for _ in range(4):
                m = managed.turn(24, 40)
                p = perfect.turn(24, 40)
                assert m.cached_tokens == p.context_before
                assert m.ttft_ns == p.ttft_ns, (policy, m.turn)

    def test_conversations_do_not_cross_pollinate(self, engine):
        kv = self.make_kv()
        a = ChatSession(engine, "facil", kv=kv, conversation_id=1)
        b = ChatSession(engine, "facil", kv=kv, conversation_id=2)
        a.turn(32, 32)
        first_b = b.turn(32, 32)
        assert first_b.cached_tokens == 0
        assert kv.audit() == []
