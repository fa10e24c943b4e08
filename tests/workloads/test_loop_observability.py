"""Every workload gets the whole-request loop's observability: replay
barriers, one request span per terminal outcome, zero perturbation from
either — and the runtime refuses the feature combinations those loops
do not implement."""

import json

import pytest

from repro.adaptive import AdaptiveConfig
from repro.analysis.replay import replay_diff, state_hash
from repro.serving.runtime import ServingRuntime
from repro.telemetry import Telemetry
from repro.workloads import CoResidencySpec, ExpertPlacementSpec, SpeculativeSpec

from tests.workloads.conftest import make_config, make_requests

WORKLOADS = ("speculative", "moe", "coresident")


def _spec(name):
    if name == "speculative":
        return SpeculativeSpec()
    if name == "moe":
        return ExpertPlacementSpec(expert_rows=1024, expert_cols=1024)
    return CoResidencySpec()


def _shedding_run():
    """40 qps for 2 s into a 4-deep reject queue: most requests are shed
    at admission, the outcomes the loop used to leave untraced."""
    return (
        make_requests(qps=40.0, duration_ms=2_000.0),
        make_config(queue_capacity=4, shed_policy="reject"),
    )


@pytest.mark.parametrize("name", WORKLOADS)
class TestRequestSpans:
    def test_every_outcome_gets_a_request_span(self, engine, name):
        requests, config = _shedding_run()
        telemetry = Telemetry(sample_every=1)
        report = ServingRuntime(
            engine, config, telemetry=telemetry, workload=_spec(name)
        ).run(requests)
        roots = [
            s for s in telemetry.tracer.spans
            if s.parent_id is None and s.name == "request"
        ]
        assert report.offered == len(requests) == 86
        assert len(roots) == report.offered
        assert sorted(s.trace_id for s in roots) == sorted(
            o.req_id for o in report.outcomes
        )
        by_id = {o.req_id: o.status for o in report.outcomes}
        assert {s.args["status"] for s in roots} >= {"served", "rejected"}
        for span in roots:
            assert span.args["status"] == by_id[span.trace_id]
            assert span.args["workload"] == report.workload["name"]

    def test_report_and_metrics_identical_with_telemetry(self, engine, name):
        requests, config = _shedding_run()
        off = ServingRuntime(engine, config, workload=_spec(name)).run(requests)
        telemetry = Telemetry(sample_every=1)
        on = ServingRuntime(
            engine, config, telemetry=telemetry, workload=_spec(name)
        ).run(requests)
        assert on.to_json() == off.to_json()
        # the registry is the probe calibration plus a pure fold of the
        # report: rebuilding it from the telemetry-off report matches
        folded = Telemetry(sample_every=1)
        folded.ensure_calibrated(engine)
        folded.record_serving_report(off)
        assert json.dumps(telemetry.metrics.snapshot()) == json.dumps(
            folded.metrics.snapshot()
        )


@pytest.mark.parametrize("name", WORKLOADS)
def test_replay_check_records_barriers(engine, name):
    requests, config = _shedding_run()

    def run(recorder):
        return ServingRuntime(
            engine, config, barriers=recorder, workload=_spec(name)
        ).run(list(requests))

    replay = replay_diff(
        run, every=8, final_hash=lambda r: state_hash(r.to_json())
    )
    assert replay.ok, replay.render()
    # one barrier per 8 outcomes plus the final snapshot
    assert replay.barriers == 86 // 8 + 2
    assert replay.result.to_json() == (
        ServingRuntime(engine, config, workload=_spec(name)).run(requests)
        .to_json()
    )


class TestUnsupportedCombinations:
    def test_adaptive_with_a_workload_is_rejected(self, engine):
        with pytest.raises(ValueError, match="ServingConfig.adaptive"):
            ServingRuntime(
                engine, make_config(adaptive=AdaptiveConfig(mode="static")), workload=_spec("moe")
            )

    def test_kv_blocks_with_a_workload_is_rejected(self, engine):
        with pytest.raises(ValueError, match="ServingConfig.kv_blocks"):
            ServingRuntime(
                engine, make_config(kv_blocks=64), workload=_spec("speculative")
            )
