"""Simulator cost benchmark: host time and simulated outcomes.

Run from the root of a checkout::

    python3 simbench/run.py --workload kv-multiturn --seed 1 --seconds 10 --trace 0
    python3 simbench/run.py --workload kv-multiturn --seed 1 --seconds 10 --trace 1

``--trace 0`` times repeated calls into the program and prints the
end-to-end metrics; ``--trace 1`` runs untraced and traced repeats,
prints the per-layer metrics and writes the spans of the first traced
repeat as Chrome-trace JSON under ``simbench/out/``.  One run draws
``INPUTS`` inputs from its seed and calls them in turn; host times are
CPU seconds scaled by the reference kernel (``reference.py``).  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``simbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: cold-process set-up measurements per run (median reported)
SETUP_PROBES = 9
#: inputs one run draws (seeds ``seed * INPUTS + j``) and calls in turn:
#: host cost per request and the ``sim_*`` values differ by a few
#: percent between seeds, and a run reports all its inputs together
INPUTS = 3

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("datapath_mib_per_s", "MiB/s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
    ("sim_goodput_qps", "1/s"),
    ("sim_ttft_p50_ms", "ms"),
    ("sim_ttft_p99_ms", "ms"),
    ("sim_ttlt_p99_ms", "ms"),
    ("sim_slo_attainment", "ratio"),
    ("sim_dram_bandwidth_gbps", "GB/s"),
)


def per_layer_metrics(layers) -> Tuple[Tuple[str, str], ...]:
    metrics: List[Tuple[str, str]] = []
    for layer in layers:
        metrics += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"),
                    (f"{layer}.self_frac", "ratio")]
    return tuple(metrics) + (
        ("kvcache.prefix_hit_rate", "ratio"),
        ("kvcache.evictions", "count"),
        ("kvcache.preemptions", "count"),
        ("kvcache.lru_leaf_calls", "count"),
        ("kvcache.begin_evict_share", "ratio"),
        ("engine.pricing_calls", "count"),
        ("fleet.failovers", "count"),
        ("fleet.kills", "count"),
        ("fleet.served_share", "ratio"),
        ("fleet.shed_share", "ratio"),
        ("fleet.failover_share", "ratio"),
        ("workloads.moe_hit_rate", "ratio"),
        ("workloads.moe_miss_rate", "ratio"),
        ("workloads.expert_reloads", "count"),
        ("os.pages_mapped", "count"),
        ("core.journal.txns", "count"),
        ("core.controller.bytes_translated", "count"),
        ("dram.requests", "count"),
        ("dram.row_hit_rate", "ratio"),
        ("reliability.ecc.words_protected", "count"),
        ("reliability.ecc.words_fetched", "count"),
        ("datapath.write_share", "ratio"),
        ("datapath.read_share", "ratio"),
        ("datapath.migrate_share", "ratio"),
        ("trace.overhead_frac", "ratio"),
    )


class Tally:
    """Timed calls and their oracle verdicts for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: the first clean Outcome per input: every repeat must match it
        self.first: Dict[int, object] = {}

    def judge(self, outcome, label: str, index: int) -> bool:
        self.attempted += 1
        problems = list(outcome.failures)
        first = self.first.get(index)
        if first is None and not problems:
            self.first[index] = outcome
        elif first is not None:
            if outcome.sha != first.sha:
                problems.append(f"report sha {outcome.sha} != {first.sha}")
            if outcome.sim != first.sim:
                problems.append("sim_* metrics differ from the first repeat")
        print(f"{label}: sha256 {outcome.sha} "
              + ("ok" if not problems else "FAILED: " + "; ".join(problems)))
        if problems:
            self.failed += 1
        return not problems

    def fail(self, label: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"{label}: FAILED: {type(exc).__name__}: {exc}")


def timed_repeats(workloads, seconds: float, tally: Tally, label: str,
                  recorder=None, between=None) -> List[Tuple[int, float, object, object]]:
    """Build, call and evaluate the *workloads* in turn until *seconds*
    have passed (and each was called once).  Each call is bracketed by
    runs of the reference kernel and timed in reference seconds.  With a
    *recorder*, each call is recorded and its per-layer snapshot kept.
    *between*, if given, runs before each call; its time extends the
    window.  Returns ``(input index, reference seconds, outcome,
    snapshot)`` for every clean call."""
    from reference import reference_cpu_s, scaled

    results = []
    deadline = time.perf_counter() + seconds
    repeat = 0
    while repeat < len(workloads) or time.perf_counter() < deadline:
        if between is not None:
            paused = time.perf_counter()
            between()
            deadline += time.perf_counter() - paused
        index = repeat % len(workloads)
        workload = workloads[index]
        name = f"{label} repeat {repeat} (seed {workload.seed})"
        state = result = None  # the previous call's objects are garbage now
        try:
            state = workload.build()
            before = reference_cpu_s()
            # start every call from a collected heap, so no call pays for
            # collecting its predecessor's garbage
            gc.collect()
            if recorder is None:
                start = time.process_time()
                result = workload.call(state)
                elapsed = time.process_time() - start
                snapshot = None
            else:
                recorder.reset()
                with recorder.recording(keep_events=repeat == 0):
                    start = time.process_time()
                    result = workload.call(state)
                    elapsed = time.process_time() - start
                if repeat == 0:
                    recorder.write_chrome_trace(str(trace_path(workloads)))
                snapshot = (recorder.layer_calls(), dict(recorder.self_ns),
                            dict(recorder.counts), dict(recorder.calls))
            elapsed = scaled(elapsed, (before + reference_cpu_s()) / 2)
            outcome = workload.evaluate(state, result)
        except Exception as exc:  # a raising call is a failed operation
            tally.fail(name, exc)
        else:
            if tally.judge(outcome, name, index):
                results.append((index, elapsed, outcome, snapshot))
        repeat += 1
    return results


def trace_path(workloads) -> Path:
    """Where the spans of a run's first traced call go, named by the
    run's seed (its first input has seed ``seed * INPUTS``)."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    first = workloads[0]
    return out / f"trace-{first.name}-seed{first.seed // INPUTS}.json"


def throughput(runs, quantity) -> float:
    """*quantity* (of an outcome) per reference second over all inputs:
    each input's quantity over the median time of its calls, summed."""
    times: Dict[int, List[float]] = {}
    amounts: Dict[int, float] = {}
    for index, elapsed, outcome, _ in runs:
        times.setdefault(index, []).append(elapsed)
        amounts[index] = quantity(outcome)
    return sum(amounts.values()) / sum(statistics.median(t) for t in times.values())


def primary(workload_name: str):
    """The workload's host-throughput quantity (the tracing-overhead
    basis): MiB where bytes move, else requests."""
    if workload_name == "pim-datapath":
        return lambda outcome: outcome.mib
    return lambda outcome: outcome.requests


def setup_probe(workload_name: str, seed: int) -> None:
    """Child side of a cold set-up measurement: import, build, report
    the process's CPU time so far, less the reference kernel bracketing
    the program's imports and build, in reference seconds."""
    from reference import reference_cpu_s, scaled

    before = reference_cpu_s()
    from workloads import WORKLOADS

    WORKLOADS[workload_name](seed).build()
    cpu_s = time.process_time() - before
    print(json.dumps({"setup_s": scaled(cpu_s, (before + reference_cpu_s()) / 2)}))


def measure_setup(workload_name: str, seed: int) -> float:
    """One cold set-up measurement in a child process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload_name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def complete(runs, workloads) -> None:
    if {index for index, _, _, _ in runs} != set(range(len(workloads))):
        raise SystemExit("simbench: an input had no clean timed call")


def untraced_metrics(workloads, seconds: float, tally: Tally) -> Dict[str, float]:
    import resource

    setup: List[float] = []
    start = time.perf_counter()
    first = workloads[0]

    def probe_when_due() -> None:
        # spread the probes over the window: on a shared machine a slow
        # phase lasts seconds, and must not set every probe of a run
        due = len(setup) * seconds / SETUP_PROBES
        if len(setup) < SETUP_PROBES and time.perf_counter() - start >= due:
            setup.append(measure_setup(first.name, first.seed))

    runs = timed_repeats(workloads, seconds, tally, "untraced", between=probe_when_due)
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(first.name, first.seed))
    complete(runs, workloads)
    metrics = {
        "setup_s": statistics.median(setup),
        "requests_per_s": throughput(runs, lambda o: o.requests),
        "datapath_mib_per_s": throughput(runs, lambda o: o.mib),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }
    # simulated outcomes: the mean over the run's inputs
    sims = [tally.first[index].sim for index in range(len(workloads))]
    metrics.update({name: statistics.fmean(sim[name] for sim in sims) for name in sims[0]})
    print(f"set-up probes (reference s): {', '.join(f'{s:.3f}' for s in setup)}")
    print("reference seconds per call: "
          + ", ".join(f"{t:.3f}" for _, t, _, _ in runs))
    return metrics


def traced_metrics(workloads, seconds: float, tally: Tally) -> Dict[str, float]:
    from layers import ENTRY_POINTS, LAYERS, PRICING_METHODS, PROBES
    from spans import SpanRecorder

    plain = timed_repeats(workloads, seconds / 2, tally, "untraced")
    recorder = SpanRecorder()
    with recorder.patched(ENTRY_POINTS, PROBES):
        traced = timed_repeats(workloads, seconds / 2, tally, "traced", recorder)
    complete(plain, workloads)
    complete(traced, workloads)
    print(f"chrome trace: {trace_path(workloads).relative_to(ROOT)}")

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        selfs = [snap[1].get(layer, 0) / 1e9 for _, _, _, snap in traced]
        metrics[f"{layer}.calls"] = traced[0][3][0].get(layer, 0)
        metrics[f"{layer}.self_s"] = statistics.median(selfs)
        # share of all recorded self time: tracing overhead is in no span
        metrics[f"{layer}.self_frac"] = statistics.median(
            s * 1e9 / sum(snap[1].values()) for s, (_, _, _, snap) in zip(selfs, traced)
        )
    _, _, outcome, (_, _, counts, calls) = traced[0]
    begins = calls.get("KvCacheManager.begin", 0)
    metrics.update({
        "kvcache.evictions": calls.get("PrefixTree.evict", 0),
        "kvcache.preemptions": calls.get("KvCacheManager.preempt", 0),
        "kvcache.lru_leaf_calls": calls.get("PrefixTree.lru_leaf", 0),
        "kvcache.begin_evict_share":
            counts.get("kvcache.begins_evicting", 0) / begins if begins else 0.0,
        "engine.pricing_calls": sum(calls.get(m, 0) for m in PRICING_METHODS),
        "os.pages_mapped": calls.get("PageTable.map_page", 0),
        "core.journal.txns": calls.get("MapJournal.begin", 0),
        "dram.requests": calls.get("ChannelScheduler.enqueue", 0),
    })
    for name in ("core.controller.bytes_translated",
                 "reliability.ecc.words_protected", "reliability.ecc.words_fetched"):
        metrics[name] = counts.get(name, 0.0)
    for name, _ in per_layer_metrics(LAYERS):
        metrics.setdefault(name, 0.0)
    metrics.update(outcome.counts)
    quantity = primary(workloads[0].name)
    metrics["trace.overhead_frac"] = (
        1.0 - throughput(traced, quantity) / throughput(plain, quantity)
    )
    ranked = sorted(LAYERS, key=lambda layer: -metrics[f"{layer}.self_frac"])
    print("self-time share: " + ", ".join(
        f"{layer}={metrics[f'{layer}.self_frac']:.3f}" for layer in ranked[:5]))
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"simbench: {SRC / 'repro'} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes are salted per process, which moves dict layouts and
        # with them host time by tens of percent between equal runs:
        # measure every run (and every set-up probe) under one salt
        os.execve(sys.executable,
                  [sys.executable, str(HERE / "run.py"),
                   *(sys.argv[1:] if argv is None else argv)],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workloads = [WORKLOADS[args.workload](args.seed * INPUTS + j)
                 for j in range(INPUTS)]
    for workload in workloads:
        workload.draw_inputs()
    tally = Tally()
    if args.trace:
        from layers import LAYERS

        metrics = traced_metrics(workloads, args.seconds, tally)
        units = dict(per_layer_metrics(LAYERS))
    else:
        metrics = untraced_metrics(workloads, args.seconds, tally)
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
