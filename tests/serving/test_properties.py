"""Property-style tests for retry pricing and health recovery.

Two contracts the serving stack documents:

* a phase that suffers exactly N transient faults before succeeding pays
  ``base * (2^N - 1)`` total backoff when jitter is off (the geometric
  series of exponential waits), and with jitter ``j`` each wait stays in
  ``[base * 2^i * (1 - j), base * 2^i * (1 + j)]``;
* a DEGRADED component returns to HEALTHY only after ``recover_after``
  *consecutive* successes — any interleaved fault resets the streak.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.reliability.degrade import Health, HealthMonitor
from repro.serving.runtime import ServingConfig, ServingRuntime

_SETTINGS = dict(max_examples=25, deadline=None)


class _ScriptedRng:
    """Stands in for the run's ``random.Random``: ``random()`` replays a
    scripted fault pattern (values < rate fault), ``uniform`` delegates
    to a real seeded stream for jitter."""

    def __init__(self, outcomes, seed=0):
        self._outcomes = list(outcomes)  # True = fault this attempt
        self._jitter_rng = random.Random(seed)

    def random(self):
        return 0.0 if self._outcomes.pop(0) else 1.0 - 1e-9

    def uniform(self, a, b):
        return self._jitter_rng.uniform(a, b)


def _run_phase(engine, n_faults, jitter=0.0, base=1000.0, seed=0):
    config = ServingConfig(
        max_retries=n_faults, base_backoff_ns=base, jitter=jitter,
        pim_fault_rate=0.5,  # any nonzero rate; the scripted rng decides
    )
    runtime = ServingRuntime(engine, config)
    rng = _ScriptedRng([True] * n_faults + [False], seed=seed)
    return runtime.core.run_phase(0.0, 100.0, "pim", rng)


class TestBackoffPricing:
    @given(n_faults=st.integers(min_value=0, max_value=8))
    @settings(**_SETTINGS)
    def test_total_backoff_is_exact_geometric_series(self, iphone_engine, n_faults):
        base = 1000.0
        end, ok, retries, backoff = _run_phase(iphone_engine, n_faults, base=base)
        assert ok
        assert retries == n_faults
        assert backoff == base * (2**n_faults - 1)
        # end = (n_faults + 1 attempts) * work + total backoff
        assert end == (n_faults + 1) * 100.0 + backoff

    @given(
        n_faults=st.integers(min_value=1, max_value=6),
        jitter=st.floats(min_value=0.01, max_value=0.99),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(**_SETTINGS)
    def test_jittered_backoff_stays_in_band(self, iphone_engine, n_faults,
                                            jitter, seed):
        base = 1000.0
        _, ok, retries, backoff = _run_phase(
            iphone_engine, n_faults, jitter=jitter, base=base, seed=seed
        )
        assert ok and retries == n_faults
        nominal = base * (2**n_faults - 1)
        assert nominal * (1 - jitter) <= backoff <= nominal * (1 + jitter)

    @given(n_faults=st.integers(min_value=1, max_value=5))
    @settings(**_SETTINGS)
    def test_exhausted_retries_abort_with_full_backoff_paid(
        self, iphone_engine, n_faults
    ):
        config = ServingConfig(
            max_retries=n_faults - 1, base_backoff_ns=1000.0,
            pim_fault_rate=0.5,
        )
        runtime = ServingRuntime(iphone_engine, config)
        rng = _ScriptedRng([True] * n_faults)
        _, ok, retries, backoff = runtime.core.run_phase(0.0, 100.0, "pim", rng)
        assert not ok
        assert retries == n_faults - 1
        # every granted retry was paid for before the abort
        assert backoff == 1000.0 * (2 ** (n_faults - 1) - 1)


class TestHealthRecoveryStreak:
    @given(recover_after=st.integers(min_value=1, max_value=8))
    @settings(**_SETTINGS)
    def test_exactly_recover_after_successes_heal(self, recover_after):
        monitor = HealthMonitor(recover_after=recover_after)
        monitor.record_fault("pim")
        assert monitor.health("pim") is Health.DEGRADED
        for _ in range(recover_after - 1):
            monitor.record_success("pim")
            assert monitor.health("pim") is Health.DEGRADED
        monitor.record_success("pim")
        assert monitor.health("pim") is Health.HEALTHY

    @given(
        recover_after=st.integers(min_value=2, max_value=6),
        prefix=st.integers(min_value=1, max_value=5),
    )
    @settings(**_SETTINGS)
    def test_interleaved_fault_resets_the_streak(self, recover_after, prefix):
        monitor = HealthMonitor(recover_after=recover_after)
        monitor.record_fault("pim")
        # a partial streak, broken by one more fault...
        for _ in range(min(prefix, recover_after - 1)):
            monitor.record_success("pim")
        monitor.record_fault("pim")
        # ...must pay the full streak again
        for _ in range(recover_after - 1):
            monitor.record_success("pim")
            assert monitor.health("pim") is Health.DEGRADED
        monitor.record_success("pim")
        assert monitor.health("pim") is Health.HEALTHY
