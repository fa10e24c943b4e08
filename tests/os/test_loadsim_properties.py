"""Property-based tests for the fragmentation arena builder."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.os.loadsim import build_fragmented_arena

_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestArenaProperties:
    @given(
        windows=st.integers(min_value=8, max_value=48),
        used_fraction=st.floats(min_value=0.1, max_value=0.7),
        target=st.floats(min_value=0.05, max_value=0.9),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(**_SETTINGS)
    def test_invariants(self, windows, used_fraction, target, seed):
        total = windows * 512
        used = int(total * used_fraction)
        arena, fmfi = build_fragmented_arena(total, used, target, seed=seed)
        # exact accounting
        assert arena.used_pages == used
        assert arena.free_pages == total - used
        # achieved FMFI is a valid index
        assert 0.0 <= fmfi <= 1.0
        # free lists are internally consistent: buddy merge of everything
        # allocated restores a whole arena
        for frame in sorted(arena.allocated):
            arena.free(frame)
        assert arena.free_pages == total

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(**_SETTINGS)
    def test_extremes_reachable(self, seed):
        total, used = 32 * 512, 8 * 512
        _, low = build_fragmented_arena(total, used, 0.02, seed=seed)
        _, high = build_fragmented_arena(total, used, 0.98, seed=seed)
        assert low < 0.35
        assert high > 0.65


class TestCompactionUnderArena:
    @given(
        target=st.floats(min_value=0.3, max_value=0.9),
        seed=st.integers(min_value=0, max_value=20),
    )
    @settings(**_SETTINGS)
    def test_allocation_always_succeeds_with_enough_free(self, target, seed):
        """As long as >=512 free pages exist, compaction can always mint
        a huge page, whatever the fragmentation."""
        arena, _ = build_fragmented_arena(24 * 512, 10 * 512, target, seed=seed)
        minted = 0
        while arena.free_pages >= 512:
            result = arena.alloc_with_compaction(9)
            assert result.frame % 512 == 0
            minted += 1
            if minted >= 8:
                break
        assert minted >= 1
