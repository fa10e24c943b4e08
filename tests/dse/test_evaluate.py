"""Point evaluation of the three ``repro.workloads`` sweep shapes.

The committed sweep and the driver tests evaluate chat shapes only;
these points run the evaluator's speculative, MoE and co-resident
branches, each with its workload loop's conservation oracle.
"""

import pytest

from repro.dse.evaluate import evaluate_point
from repro.dse.spec import SweepSpec

KINDS = ("speculative", "moe", "coresident")

POINTS = {
    point.coord("workload"): point
    for point in SweepSpec(
        axes=(("workload", KINDS),), duration_ms=2000.0
    ).points()
}


@pytest.mark.parametrize("kind", KINDS)
def test_workload_point_serves_conserves_and_repeats(kind):
    point = POINTS[kind]
    metrics = evaluate_point(point.config, point.seed)
    assert metrics["served"] > 0
    assert metrics["workload_conservation_findings"] == 0
    assert evaluate_point(point.config, point.seed) == metrics
