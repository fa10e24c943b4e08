"""How a run turns timed calls into throughput, and judges repeats."""

from types import SimpleNamespace

import pytest

import run
from reference import REFERENCE_S, scaled


def test_scaled_time_is_in_reference_seconds():
    # a host twice as slow as nominal halves the scaled time
    assert scaled(3.0, 2 * REFERENCE_S) == pytest.approx(1.5)
    assert scaled(3.0, REFERENCE_S) == pytest.approx(3.0)


def test_throughput_sums_inputs_over_their_median_times():
    a = SimpleNamespace(requests=100)
    b = SimpleNamespace(requests=300)
    runs = [(0, 1.0, a, None), (0, 9.0, a, None), (0, 2.0, a, None),
            (1, 3.0, b, None)]
    # input 0: median 2.0 s, input 1: 3.0 s
    assert run.throughput(runs, lambda o: o.requests) == pytest.approx(400 / 5.0)


def _outcome(sha, sim=1.0):
    return SimpleNamespace(failures=[], sha=sha, sim={"sim_x": sim})


def test_repeats_are_judged_against_their_own_input():
    tally = run.Tally()
    assert tally.judge(_outcome("a"), "first of input 0", 0)
    assert tally.judge(_outcome("b"), "first of input 1", 1)
    assert tally.judge(_outcome("a"), "repeat of input 0", 0)
    assert not tally.judge(_outcome("b"), "input 0 with input 1's report", 0)
    assert not tally.judge(_outcome("b", sim=2.0), "input 1, sim moved", 1)
    assert (tally.attempted, tally.failed) == (5, 2)
