"""Short runs of every workload: clean oracles, and the simulated report
is byte-identical with tracing on and off."""

import json
from pathlib import Path

import pytest

import run
from layers import ENTRY_POINTS, LAYERS, PROBES
from spans import SpanRecorder
from workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_report_identical_with_tracing_on_and_off(name):
    workload = WORKLOADS[name](seed=3, smoke=True)
    workload.draw_inputs()
    state = workload.build()
    plain = workload.evaluate(state, workload.call(state))
    assert plain.failures == []
    assert plain.requests > 0 and plain.mib > 0

    recorder = SpanRecorder()
    with recorder.patched(ENTRY_POINTS, PROBES):
        state = workload.build()
        with recorder.recording():
            result = workload.call(state)
    traced = workload.evaluate(state, result)
    assert traced.report == plain.report
    assert traced.sim == plain.sim
    assert sum(recorder.self_ns.values()) > 0


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.per_layer_metrics(LAYERS)
    )
