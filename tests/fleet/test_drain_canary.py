"""Drain-while-canary: an adaptive CANARY in flight that an
administrative action (a device drain) aborts must roll back cleanly —
pages byte-restored to the pre-canary MapID, AD003 audit clean, cooldown
armed, and the aborted target *not* flap-damped (the canary was
innocent).

The property is checked over arbitrary drifting workloads (hypothesis
picks the hot-shape blocks), because the dangerous part is the timing:
the drain can land at any point of the canary window.
"""

from hypothesis import given, settings, strategies as st

from repro.adaptive.controller import (
    CANARY,
    COOLDOWN,
    WATCHING,
    AdaptiveConfig,
    AdaptiveController,
)

from tests.adaptive.conftest import FakeArena, drive

_SETTINGS = dict(max_examples=25, deadline=None)

WINDOW = 8
CANARY_WINDOW = 4


def _controller():
    arena = FakeArena()
    config = AdaptiveConfig(
        mode="active", window_requests=WINDOW, canary_window=CANARY_WINDOW,
        cooldown_requests=10, hysteresis=2.0, canary_fraction=0.25,
        max_migrations=8, penalty_coeff=0.05, slo_margin=0.10,
    )
    return AdaptiveController(config, arena=arena), arena


def _drive_into_canary(ctrl, ticks_into_canary):
    """A sustained 3000-token hot shape flips the controller into CANARY
    (the pages start at MapID 3; 3000 wants 5), then *ticks_into_canary*
    more requests advance partway through the canary window."""
    tick = 0
    while ctrl.state != CANARY:
        drive(ctrl, 3000, n=1, start_req=tick)
        tick += 1
        assert tick < 10 * WINDOW, "controller never opened a canary"
    drive(ctrl, 3000, n=ticks_into_canary, start_req=tick)
    return tick + ticks_into_canary


class TestDrainWhileCanary:
    @given(ticks=st.integers(0, CANARY_WINDOW - 1))
    @settings(**_SETTINGS)
    def test_drain_rolls_the_canary_back_cleanly(self, ticks):
        ctrl, arena = _controller()
        before_pages = list(arena.page_k)
        tick = _drive_into_canary(ctrl, ticks)
        assert ctrl.state == CANARY

        rollbacks_before = ctrl.rollbacks
        cost = ctrl.abort_canary(-1, float(tick), reason="device draining")

        assert cost > 0.0
        assert ctrl.state == COOLDOWN
        assert ctrl.rollbacks == rollbacks_before + 1
        # pages byte-restored to the pre-canary MapID mirror
        assert arena.page_k == before_pages
        # AD003 ran over the aborted pages and found nothing
        assert arena.verify_calls
        assert ctrl.findings == []
        # innocent canary: the target MapID is not flap-damped
        assert ctrl._rejected_map_id is None

    @given(ticks=st.integers(0, CANARY_WINDOW - 1))
    @settings(**_SETTINGS)
    def test_abort_is_idempotent(self, ticks):
        ctrl, arena = _controller()
        tick = _drive_into_canary(ctrl, ticks)
        assert ctrl.abort_canary(-1, float(tick)) > 0.0
        pages_after = list(arena.page_k)
        # a second abort (double drain, drain-then-kill) is a no-op
        assert ctrl.abort_canary(-1, float(tick + 1)) == 0.0
        assert arena.page_k == pages_after
        assert ctrl.rollbacks == 1

    def test_abort_without_canary_is_free(self):
        ctrl, arena = _controller()
        assert ctrl.state == WATCHING
        assert ctrl.abort_canary(-1, 0.0) == 0.0
        assert ctrl.rollbacks == 0
        assert arena.migrations == []

