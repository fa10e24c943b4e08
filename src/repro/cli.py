"""Command-line interface for the FACIL reproduction.

Subcommands::

    repro-facil platforms                         # Table II catalog
    repro-facil mapping  --rows 4096 --cols 4096  # selector decision
    repro-facil query    --policy facil --prefill 24 --decode 64
    repro-facil sweep                             # Fig. 13 TTFT series
    repro-facil dataset  --dataset alpaca-like    # Figs. 15/16 trace
    repro-facil chaos    --flip-rate 2.0 --seed 7 # reliability campaign
    repro-facil serve    --duration-ms 60000      # serving runtime + SLO report
    repro-facil fleet    --devices 4 --kills 40   # fleet run with device losses
    repro-facil fleet-chaos --kills 300           # fleet kill campaign + audit oracles
    repro-facil trace    --trace-out trace.json   # traced run + metrics snapshot
    repro-facil dse      --workers 4              # design-space sweep + Pareto report
    repro-facil analyze  --format json            # static analysis gate

``chaos``, ``serve``, ``fleet`` and ``fleet-chaos`` write machine-readable
JSON reports under ``benchmarks/results/`` and exit nonzero when any
query went unserved (for ``fleet``: when any request was lost or any
post-recovery audit found damage; for ``fleet-chaos``: when any campaign
oracle failed).

Each flag that several subcommands take is declared once, in
``_SHARED_FLAGS``.  A flag's ``dest`` is the name of the record field it
sets, and :func:`_record` builds each record from the flags by field
name.  A subcommand takes only the flags of what it runs, so argparse
itself refuses a flag that the subcommand would ignore.

The single-device commands take ``--platform`` (default
``jetson-agx-orin``).  Install exposes the ``repro-facil`` script; the
module also runs directly as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
from typing import Any, Callable, Dict, List, Optional, Type, TypeVar

from repro.core.selector import MatrixConfig, build_selected_mapping, select_mapping
from repro.engine.metrics import geomean
from repro.engine.policies import POLICIES, InferenceEngine, decode_on_pim
from repro.engine.runner import dataset_eval, ttft_speedup_sweep
from repro.llm.datasets import ALPACA_LIKE, HUMANEVAL_AUTOCOMPLETE_LIKE, DatasetSpec
from repro.platforms.specs import ALL_PLATFORMS, PlatformSpec

_DATASETS = {
    ALPACA_LIKE.name: ALPACA_LIKE,
    HUMANEVAL_AUTOCOMPLETE_LIKE.name: HUMANEVAL_AUTOCOMPLETE_LIKE,
}

_R = TypeVar("_R")
_N = TypeVar("_N", int, float)


# -- argparse numeric validators ------------------------------------------
# Bad counts and rates should die at the parser with a flag-specific
# message, not hundreds of frames deep in the event loop.

def _number_flag(
    cast: Callable[[str], _N], noun: str, rule: str, ok: Callable[[_N], bool]
) -> Callable[[str], _N]:
    """An argparse ``type``: *noun* for which *ok* holds, else the error
    ``must be <rule>``."""

    def parse(text: str) -> _N:
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun}")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule} (got {value})")
        return value

    return parse


_positive_int = _number_flag(int, "an integer", "a positive integer", lambda v: v > 0)
_nonneg_int = _number_flag(int, "an integer", "a non-negative integer", lambda v: v >= 0)
_positive_float = _number_flag(float, "a number", "positive", lambda v: v > 0)
_nonneg_float = _number_flag(float, "a number", "non-negative", lambda v: v >= 0)
_unit_interval = _number_flag(float, "a number", "in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_open_unit_interval = _number_flag(float, "a number", "in (0, 1)", lambda v: 0.0 < v < 1.0)
#: probabilities and jitter amplitudes that the runtime requires below 1
_half_open_unit_interval = _number_flag(
    float, "a number", "in [0, 1)", lambda v: 0.0 <= v < 1.0
)


def _platform_by_name(name: str) -> PlatformSpec:
    for platform in ALL_PLATFORMS:
        if platform.name == name:
            return platform
    known = ", ".join(p.name for p in ALL_PLATFORMS)
    raise SystemExit(f"unknown platform {name!r}; known: {known}")


def _dataset_by_name(name: str) -> DatasetSpec:
    spec = _DATASETS.get(name)
    if spec is None:
        raise SystemExit(f"unknown dataset {name!r}; known: {sorted(_DATASETS)}")
    return spec


def _record(cls: Type[_R], args: argparse.Namespace, **given: Any) -> _R:
    """Build the record *cls* from the flags whose ``dest`` names one of
    its fields, with the *given* fields set directly; a ``ValueError``
    from the record's own checks exits with its one-line message."""
    fields = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(cls)
        if hasattr(args, field.name)
    }
    fields.update(given)
    try:
        return cls(**fields)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _cmd_platforms(args: argparse.Namespace) -> None:
    print(f"{'platform':22s} {'processor':28s} {'TFLOPS':>7s} {'BW GB/s':>8s} "
          f"{'mem':>6s}  model")
    for p in ALL_PLATFORMS:
        org = p.dram.org
        print(
            f"{p.name:22s} {p.soc.name:28s} {p.soc.peak_tflops_fp16:>7.1f} "
            f"{p.peak_bw_gbps:>8.1f} {org.capacity_bytes >> 30:>4d}GB  "
            f"{p.model_name}"
        )


def _cmd_mapping(args: argparse.Namespace) -> None:
    platform = _platform_by_name(args.platform)
    matrix = MatrixConfig(rows=args.rows, cols=args.cols, dtype_bytes=args.dtype_bytes)
    selection = select_mapping(matrix, platform.dram.org, platform.pim)
    mapping = build_selected_mapping(matrix, platform.dram.org, platform.pim)
    print(f"matrix          : {matrix.rows} x {matrix.cols} "
          f"({matrix.dtype_bytes} B elements)")
    print(f"platform        : {platform.name} "
          f"({platform.dram.org.total_banks} PIM PUs)")
    print(f"selected MapID  : {selection.map_id}")
    print(f"partitioned     : {selection.needs_partition} "
          f"({selection.partitions_per_row} PUs per row)")
    print(f"leading dim     : {selection.padded_row_bytes // matrix.dtype_bytes} "
          "elements")
    print(f"bit layout      : {mapping.describe()}  (MSB..LSB)")


def _cmd_query(args: argparse.Namespace) -> None:
    platform = _platform_by_name(args.platform)
    engine = InferenceEngine(platform)
    print(f"{platform.name} / {engine.model.name}, prefill={args.prefill_len}, "
          f"decode={args.decode_len}\n")
    policies = [args.policy] if args.policy else list(POLICIES)
    print(f"{'policy':16s} {'TTFT':>10s} {'TTLT':>10s}  breakdown")
    for policy in policies:
        q = engine.run_query(policy, args.prefill_len, args.decode_len)
        parts = ", ".join(
            f"{k}={v / 1e6:.1f}ms" for k, v in q.breakdown.items()
        )
        print(f"{policy:16s} {q.ttft_ms:>8.1f}ms {q.ttlt_ms:>8.1f}ms  {parts}")


def _cmd_sweep(args: argparse.Namespace) -> None:
    platform = _platform_by_name(args.platform)
    engine = InferenceEngine(platform)
    lengths = tuple(args.prefill_lengths)
    points = ttft_speedup_sweep(engine, lengths, decode_len=args.decode_len)
    print(f"TTFT speedup of FACIL over hybrid-static on {platform.name}:")
    for point in points:
        print(f"  prefill {point.prefill:>4d}: {point.ttft_speedup:.2f}x "
              f"(facil {point.facil.ttft_ms:.1f}ms, "
              f"baseline {point.baseline.ttft_ms:.1f}ms)")
    print(f"  geomean: {geomean([p.ttft_speedup for p in points]):.2f}x")


def _cmd_dataset(args: argparse.Namespace) -> None:
    platform = _platform_by_name(args.platform)
    engine = InferenceEngine(platform)
    spec = _dataset_by_name(args.dataset)
    result = dataset_eval(engine, spec, n_queries=args.n_queries, seed=args.seed)
    print(f"{spec.name} x {result.n_queries} queries on {platform.name}:")
    print(f"{'policy':16s} {'mean TTFT':>10s} {'mean TTLT':>10s}")
    for policy in POLICIES:
        print(f"{policy:16s} {result.mean_ttft_ns(policy)/1e6:>8.1f}ms "
              f"{result.mean_ttlt_ns(policy)/1e6:>8.1f}ms")
    print(
        f"\nFACIL vs hybrid-static : "
        f"{result.ttft_speedup_over('hybrid-static'):.2f}x TTFT, "
        f"{result.ttlt_speedup_over('hybrid-static'):.2f}x TTLT"
    )
    print(
        f"FACIL vs hybrid-dynamic: "
        f"{result.ttft_speedup_over('hybrid-dynamic'):.2f}x TTFT"
    )


def _results_path(name: str) -> "Path":
    from pathlib import Path

    results = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    results.mkdir(parents=True, exist_ok=True)
    return results / name


def _cmd_chaos(args: argparse.Namespace) -> None:
    # Lazy import: the reliability layer is optional machinery the other
    # subcommands never need.
    import json

    from repro.reliability import CampaignSpec, ResilientEngine, run_campaign

    platform = _platform_by_name(args.platform)
    engine = ResilientEngine(InferenceEngine(platform))
    report = run_campaign(_record(CampaignSpec, args), engine=engine)
    print(f"platform        : {platform.name} / {engine.engine.model.name}")
    print(report.render())
    if args.metrics_out:
        report.metrics.write_json(args.metrics_out)
        print(f"metrics written to {args.metrics_out} "
              f"({len(report.metrics)} families)")
    payload = {"campaign": report.to_dict()}
    crash = None
    if (
        args.crash_injections
        or args.kv_crash_injections
        or args.migration_crash_injections
    ):
        from repro.serving.crashes import run_crash_campaign

        crash = run_crash_campaign(
            n_injections=args.crash_injections,
            seed=args.seed,
            kv_injections=args.kv_crash_injections,
            migration_injections=args.migration_crash_injections,
        )
        print()
        print(crash.render())
        payload["crash"] = crash.to_dict()
    out = args.out if args.out else _results_path(f"chaos_seed{args.seed}.json")
    with open(out, "w") as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")
    print(f"\nreport written to {out}")
    if report.silent:
        raise SystemExit(f"{report.silent} silent corruption(s) escaped")
    if report.aborted:
        raise SystemExit(f"{report.aborted} query(ies) went unserved")
    if crash is not None and not crash.ok:
        # ok fails on ANY post-recovery audit finding, including one the
        # aggregate counters miss (e.g. an armed crash that never fired)
        first = f"; first: {crash.failures[0]}" if crash.failures else ""
        raise SystemExit(
            f"crash-recovery campaign failed its audit with "
            f"{len(crash.failures)} finding(s){first}"
        )


def _build_workload_spec(args: argparse.Namespace):
    """Resolve --workload into a repro.workloads spec (None for chat)."""
    if args.workload == "chat":
        return None
    if args.kv_blocks:
        raise SystemExit(
            "--workload loops manage their own placement state; "
            "drop --kv-blocks"
        )
    if args.adaptive != "off":
        raise SystemExit("--workload requires --adaptive off")
    from repro.workloads import (
        CoResidencySpec,
        ExpertPlacementSpec,
        SpeculativeSpec,
    )

    if args.workload == "speculative":
        # the spec's own KV pool backs its rollback accounting; --kv-blocks
        # and --block-tokens size the serving loop's pool
        return _record(
            SpeculativeSpec, args, kv_blocks=SpeculativeSpec.kv_blocks,
            block_tokens=SpeculativeSpec.block_tokens,
        )
    if args.workload == "moe":
        return _record(ExpertPlacementSpec, args)
    return _record(CoResidencySpec, args)


def _request_stream(args: argparse.Namespace, engine: InferenceEngine,
                    dataset: DatasetSpec, coresident=None):
    """The run's Poisson request stream, offered at ``--qps`` or else at
    ``--load`` times the sustainable rate; returns the stream, the
    offered rate and the sustainable rate."""
    from repro.serving import TenantSpec, poisson_workload, sustainable_qps

    probe = TenantSpec(name="probe", dataset=dataset, policy=args.policy)
    capacity_qps = sustainable_qps(engine, probe, seed=args.seed)
    qps = getattr(args, "qps", None) or args.load * capacity_qps
    shares = [(dataset.name, 1.0)]
    if coresident is not None:
        # split the offered rate between the two co-resident models
        share = coresident.secondary_share
        shares = [(dataset.name, 1.0 - share), (coresident.secondary_tenant, share)]
    tenants = [
        _record(TenantSpec, args, name=name, dataset=dataset, qps=qps * part)
        for name, part in shares
    ]
    requests = poisson_workload(tenants, duration_ms=args.duration_ms, seed=args.seed)
    return requests, qps, capacity_qps


def _cmd_serve(args: argparse.Namespace) -> None:
    # Lazy import: the serving layer pulls in the reliability stack.
    from repro.serving import ServingConfig, ServingRuntime

    platform = _platform_by_name(args.platform)
    engine = InferenceEngine(platform)
    dataset = _dataset_by_name(args.dataset)
    if args.adaptive != "off" and args.kv_blocks:
        raise SystemExit(
            "--adaptive runs on the whole-request loop only (drop --kv-blocks)"
        )
    workload_spec = _build_workload_spec(args)
    requests, qps, capacity_qps = _request_stream(
        args, engine, dataset,
        workload_spec if args.workload == "coresident" else None,
    )
    # Brown-out watermarks scale with the platform: saturation means a
    # few mean decode phases queued, whatever those cost here.
    probe_rng = random.Random(args.seed)
    on_pim = decode_on_pim(args.policy)
    decode_works = [
        engine.decode_total_ns(t.prefill_tokens, t.decode_tokens, on_pim)
        for t in (dataset.sample_one(probe_rng) for _ in range(50))
    ]
    mean_decode_ns = sum(decode_works) / len(decode_works)
    adaptive = None
    if args.adaptive != "off":
        from repro.adaptive import AdaptiveConfig

        adaptive = AdaptiveConfig(mode=args.adaptive, pinned_map_id=args.adaptive_pin)
    config = _record(
        ServingConfig, args, adaptive=adaptive,
        brownout_high_ns=4.0 * mean_decode_ns,
        brownout_low_ns=1.0 * mean_decode_ns,
    )
    telemetry = None
    if args.trace_out or args.metrics_out:
        from repro.telemetry import Telemetry

        telemetry = Telemetry(sample_every=args.trace_sample)
    replay = None
    if args.replay_check:
        if telemetry is not None:
            raise SystemExit(
                "--replay-check runs the workload twice; drop "
                "--trace-out/--metrics-out"
            )
        from repro.analysis.replay import replay_diff, state_hash

        def _run_once(recorder):
            return ServingRuntime(
                engine, config, barriers=recorder, workload=workload_spec
            ).run(list(requests))

        replay = replay_diff(
            _run_once,
            every=args.replay_barrier,
            final_hash=lambda r: state_hash(r.to_json()),
        )
        report = replay.result
    else:
        report = ServingRuntime(
            engine, config, telemetry=telemetry, workload=workload_spec
        ).run(requests)
    print(f"platform        : {platform.name} / {engine.model.name}")
    print(f"sustainable     : {capacity_qps:.2f} qps; offered {qps:.2f} qps "
          f"({qps / capacity_qps:.2f}x)")
    print(report.render())
    out = args.out if args.out else _results_path(f"serve_seed{args.seed}.json")
    with open(out, "w") as handle:
        handle.write(report.to_json() + "\n")
    print(f"\nreport written to {out}")
    if telemetry is not None:
        _write_telemetry(telemetry, args.trace_out, args.metrics_out)
    if replay is not None:
        print(replay.render())
        if not replay.ok:
            raise SystemExit(
                f"replay-diff check failed at seed {args.seed}: "
                f"{replay.findings[0].message}"
            )
    section = report.workload or {}
    if section.get("conservation_findings", 0) > 0:
        findings = section.get("findings") or [
            "the workload section lists no details"
        ]
        raise SystemExit(
            f"{section['conservation_findings']} {section['name']} workload "
            f"conservation finding(s); first: {findings[0]}"
        )
    if report.unserved:
        raise SystemExit(
            f"{report.unserved} admitted query(ies) went unserved "
            f"({report.timed_out} timed-out, {report.aborted} aborted)"
        )


def _write_telemetry(telemetry, trace_out, metrics_out) -> None:
    telemetry.write(trace_out, metrics_out)
    stats = telemetry.tracer.stats()
    if trace_out:
        print(f"trace written to {trace_out} ({stats['spans']} spans, "
              f"{stats['traces_sampled']}/{stats['traces_seen']} "
              f"queries sampled)")
    if metrics_out:
        print(f"metrics written to {metrics_out} "
              f"({len(telemetry.metrics)} families)")
    for finding in telemetry.findings:
        print(f"advisor {finding.rule_id} [{finding.level}] {finding.message}")


def _cmd_trace(args: argparse.Namespace) -> None:
    # Lazy imports: the serving and telemetry planes are only needed here.
    from repro.serving import ServingConfig, ServingRuntime
    from repro.telemetry import Telemetry

    platform = _platform_by_name(args.platform)
    engine = InferenceEngine(platform)
    requests, qps, _ = _request_stream(args, engine, _dataset_by_name(args.dataset))
    config = _record(ServingConfig, args, shed_policy="degrade")
    telemetry = Telemetry(sample_every=args.sample_every)
    report = ServingRuntime(engine, config, telemetry=telemetry).run(requests)
    print(f"platform        : {platform.name} / {engine.model.name}")
    print(f"traced run      : {len(requests)} requests over "
          f"{args.duration_ms:.0f} ms at {qps:.2f} qps")
    by_layer = telemetry.tracer.spans_by_layer()
    print("spans by layer  : "
          + (", ".join(f"{k}={v}" for k, v in by_layer.items()) or "none"))
    print(f"goodput         : {report.goodput_qps:.2f} qps "
          f"({report.served} served)")
    cal = telemetry.calibration
    if cal is not None:
        print(f"probe           : {cal.dram_ns_per_byte * 1e3:.3f} ps/B, "
              f"bus util {cal.bus_utilization:.3f}, "
              f"row-hit {cal.row_hit_rate:.3f}")
        print(f"advisor         : agreement {cal.advisor_agreement:.3f} over "
              f"{len(cal.probed_tensors)} probed tensor(s)")
    _write_telemetry(telemetry, args.trace_out, args.metrics_out)
    if args.advisor_sweep:
        from repro.telemetry.advisor import agreement_sweep

        sweep = agreement_sweep(metrics=telemetry.metrics)
        print(f"advisor sweep   : {sweep.agreements}/{sweep.checks} agree "
              f"(rate {sweep.agreement_rate:.3f}), "
              f"{len(sweep.skipped)} shape(s) skipped")
        for finding in sweep.findings:
            print(f"advisor {finding.rule_id} [{finding.level}] "
                  f"{finding.message}")
        if args.metrics_out:
            # refresh the snapshot so sweep counters are included
            telemetry.metrics.write_json(args.metrics_out)


def _cmd_fleet(args: argparse.Namespace) -> None:
    # Lazy import: the fleet layer pulls in serving + kvcache.
    from repro.fleet import (
        BURSTY_OVERLOAD,
        DIURNAL,
        FleetConfig,
        FleetRuntime,
        SteadyShape,
        shaped_workload,
    )
    from repro.fleet.chaos import kill_schedule
    from repro.serving.workload import TenantSpec

    if args.standby_devices >= args.n_devices:
        raise SystemExit(
            f"--standby must be less than --devices ({args.standby_devices} "
            f">= {args.n_devices}): at least one device starts in rotation"
        )
    shapes = {
        "steady": SteadyShape(),
        "diurnal": DIURNAL,
        "bursty": BURSTY_OVERLOAD,
    }
    dataset = _dataset_by_name(args.dataset)
    config = _record(FleetConfig, args)
    tenant = _record(TenantSpec, args, name=dataset.name, dataset=dataset)
    requests = shaped_workload(
        [tenant], args.duration_ms, shape=shapes[args.shape], seed=args.seed
    )
    # The campaign's schedule, without its recovery dwell: there is no
    # kill-count oracle here, so a kill that lands on a still-quarantined
    # device — or on a STANDBY/DRAINING member parked out of rotation
    # (--standby/--autoscale) — is simply skipped by the runtime instead
    # of retargeted.
    kills, _ = kill_schedule(args.n_devices, args.kills, args.kill_gap_ms, args.seed)
    telemetry = None
    if args.metrics_out:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    runtime = FleetRuntime(config, telemetry=telemetry)
    report = runtime.run(requests, kills=kills)
    print(report.render())
    out = args.out if args.out else _results_path(f"fleet_seed{args.seed}.json")
    with open(out, "w") as handle:
        handle.write(report.to_json() + "\n")
    print(f"\nreport written to {out}")
    if telemetry is not None:
        telemetry.metrics.write_json(args.metrics_out)
        print(f"metrics written to {args.metrics_out} "
              f"({len(telemetry.metrics)} families)")
    if not report.none_lost:
        raise SystemExit("a request was silently lost or double-counted")
    if report.audit_findings:
        raise SystemExit(
            f"{len(report.audit_findings)} post-recovery audit finding(s): "
            f"{report.audit_findings[0]}"
        )


def _cmd_fleet_chaos(args: argparse.Namespace) -> None:
    # Lazy import: the fleet layer pulls in serving + kvcache.
    import json

    from repro.fleet import FleetChaosSpec, run_fleet_chaos

    report = run_fleet_chaos(_record(FleetChaosSpec, args))
    d = report.to_dict()
    print(f"fleet chaos campaign: seed={d['seed']} "
          f"devices={d['n_devices']} kills={d['kills_applied']}"
          f"/{d['kills_requested']}")
    print("crashes by site : " + ", ".join(
        f"{site}={n}" for site, n in sorted(d["crashes_by_site"].items())
    ))
    print(f"offered         : {d['offered']} ({d['served']} served, "
          f"{d['shed']} shed, {d['unserved']} unserved)")
    print(f"failover reqs   : {d['failover_requests']}")
    print(f"audit findings  : {len(d['audit_findings'])}")
    print(f"ok              : {d['ok']}")
    out = (
        args.out if args.out
        else _results_path(f"fleet_chaos_seed{args.seed}.json")
    )
    with open(out, "w") as handle:
        handle.write(json.dumps(d, indent=2) + "\n")
    print(f"\nreport written to {out}")
    if not report.ok:
        raise SystemExit(
            f"fleet chaos campaign failed: {report.failures[0]}"
        )


def _cmd_dse(args: argparse.Namespace) -> None:
    # Lazy import: the DSE layer pulls in serving + kvcache.
    import json

    from repro.dse import (
        SweepSpec,
        default_sweep,
        load_reuse,
        pareto_report,
        parse_axis_overrides,
        run_sweep,
    )
    from repro.dse.evaluate import evaluate_point

    try:
        axes = parse_axis_overrides(args.axes) if args.axes else default_sweep().axes
    except ValueError as exc:
        raise SystemExit(str(exc))
    spec = _record(SweepSpec, args, axes=tuple(axes))

    # Self-contained repro prefix: every sweep-level flag spelled out so
    # the printed per-point command rebuilds the identical spec
    # regardless of this CLI's defaults changing later.  Worker count,
    # output paths, and resume mode deliberately excluded — they never
    # affect results.
    prefix = [
        "repro-facil", "dse",
        "--seed", str(args.seed),
        "--duration-ms", str(args.duration_ms),
        "--qps", str(args.qps),
        "--deadline-ms", str(args.deadline_ms),
        "--capacity", str(args.queue_capacity),
        "--block-tokens", str(args.block_tokens),
    ]
    for axis in args.axes or []:
        prefix += ["--axes", axis]
    prefix_str = " ".join(prefix)

    if args.only:
        points = spec.points()
        matches = [p for p in points if p.config_hash == args.only]
        if not matches:
            raise SystemExit(
                f"no point with config_hash {args.only!r} in this sweep "
                f"({len(points)} points); re-run with the same --axes and "
                f"sweep knobs as the original sweep"
            )
        point = matches[0]
        seed = args.point_seed if args.point_seed is not None else point.seed
        metrics = evaluate_point(point.config, seed)
        print(f"point           : #{point.index} of {len(points)}")
        print("coords          : "
              + ", ".join(f"{k}={v}" for k, v in point.coords))
        print(f"config_hash     : {point.config_hash}")
        print(f"seed            : {seed}")
        print("metrics         : " + json.dumps(metrics, sort_keys=True))
        return

    out = args.out if args.out else _results_path(f"dse_seed{args.seed}.json")
    reuse = None
    if args.resume:
        reuse = load_reuse(str(out))
    result = run_sweep(spec, workers=args.workers, reuse=reuse)
    report = pareto_report(result, repro_prefix=prefix_str)
    print(f"sweep           : {len(result.points)} points over "
          f"{len(spec.axes)} axes (spec hash {result.spec_hash})")
    if args.resume:
        print(f"evaluated       : {result.evaluated} fresh, "
              f"{result.reused} reused from {out}")
    else:
        print(f"evaluated       : {result.evaluated} fresh")
    print(f"workers         : {args.workers}")
    print()
    print(report.render(top=args.top))
    with open(out, "w") as handle:
        handle.write(report.to_json() + "\n")
    print(f"\nreport written to {out}")


def _cmd_analyze(args: argparse.Namespace) -> None:
    # Lazy import: the analysis layer is tooling the runtime commands
    # never need.
    from pathlib import Path

    from repro.analysis import KNOWN_PASSES, run_all

    passes = tuple(args.passes) if args.passes else KNOWN_PASSES
    try:
        report = run_all(
            repo_root=Path.cwd(),
            trace_paths=args.trace or (),
            span_paths=args.spans or (),
            passes=passes,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.waive:
        report.waive(args.waive)
    if args.format in ("json", "sarif"):
        print(report.render_json())
    else:
        print(report.render_text())
    if not report.ok:
        raise SystemExit(1)


#: Every flag that more than one subcommand takes, declared once.  A
#: subcommand sets its own default only where it differs from this one.
#: A ``dest`` names the record field the flag sets (see :func:`_record`).
_SHARED_FLAGS: Dict[str, Dict[str, Any]] = {
    "--platform": dict(default="jetson-agx-orin"),
    "--seed": dict(type=int, default=0, help="seed of the run's random streams"),
    "--dataset": dict(default=ALPACA_LIKE.name, help=f"one of {sorted(_DATASETS)}"),
    "--policy": dict(choices=POLICIES, default="facil"),
    "--queries": dict(dest="n_queries", type=_positive_int, default=100),
    "--prefill": dict(dest="prefill_len", type=_positive_int, default=24),
    "--decode": dict(dest="decode_len", type=_positive_int, default=64),
    "--duration-ms": dict(type=_positive_float, default=60_000.0,
                          help="simulated horizon (per point in a sweep)"),
    "--qps": dict(type=_positive_float, default=None,
                  help="offered arrival rate (a fleet's peak rate); serve's "
                  "default: --load x sustainable rate"),
    "--load": dict(type=_positive_float, default=0.5,
                   help="arrival rate as a fraction of sustainable"),
    "--deadline-ms": dict(type=_positive_float, default=10_000.0,
                          help="per-request TTFT budget"),
    "--mean-turns": dict(type=_positive_float, default=1.0,
                         help="mean turns per conversation (> 1 emits "
                         "multi-turn traffic)"),
    "--capacity": dict(dest="queue_capacity", type=_positive_int, default=8,
                       help="admission queue bound (per device in a fleet)"),
    "--shed": dict(dest="shed_policy", choices=("reject", "degrade", "drop-oldest"),
                   default="reject",
                   help="load-shedding policy (per device in a fleet)"),
    "--pim-fault-rate": dict(type=_half_open_unit_interval, default=0.0,
                             help="P(transient fault) per PIM phase attempt"),
    "--mapping-fault-rate": dict(type=_half_open_unit_interval, default=0.0,
                                 help="P(transient fault) per flexible-mapping "
                                 "prefill"),
    # fleet declares its own --kv-blocks: a fleet device needs a pool
    "--kv-blocks": dict(type=_nonneg_int, default=0,
                        help="KV block pool size; > 0 switches to the paged-KV "
                        "continuous-batching scheduler, 0 serves whole requests"),
    "--block-tokens": dict(type=_positive_int, default=16,
                           help="tokens per KV block"),
    "--devices": dict(dest="n_devices", type=_positive_int, default=4,
                      help="fleet size (heterogeneous Table II catalog)"),
    "--kills": dict(type=_nonneg_int, default=0,
                    help="seeded device losses to schedule"),
    "--kill-gap-ms": dict(type=_positive_float, default=20.0,
                          help="mean gap between consecutive kills"),
    "--recovery-ms": dict(type=_positive_float, default=50.0,
                          help="quarantine dwell before the timed revive"),
    "--out": dict(default=None, metavar="PATH",
                  help="JSON report path (default: benchmarks/results/)"),
    "--trace-out": dict(default=None, metavar="PATH",
                        help="write a Chrome-trace JSON of the run's spans"),
    "--metrics-out": dict(default=None, metavar="PATH",
                          help="write a metrics snapshot (JSON) of the run"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-facil",
        description="FACIL (HPCA 2025) reproduction: SoC-PIM cooperative "
        "on-device LLM inference with flexible DRAM address mapping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run: Callable[[argparse.Namespace], None],
                summary: str, *flags: str, **defaults: Any) -> argparse.ArgumentParser:
        """A subcommand taking the shared *flags*, with *defaults* where
        its own differ from the table's."""
        cmd = sub.add_parser(name, help=summary)
        for flag in flags:
            cmd.add_argument(flag, **_SHARED_FLAGS[flag])
        cmd.set_defaults(run=run, **defaults)
        return cmd

    command("platforms", _cmd_platforms, "list the Table II platform catalog")

    mapping = command("mapping", _cmd_mapping, "show the selector's decision",
                      "--platform")
    mapping.add_argument("--rows", type=_positive_int, required=True)
    mapping.add_argument("--cols", type=_positive_int, required=True)
    mapping.add_argument("--dtype-bytes", type=_positive_int, default=2)

    command("query", _cmd_query, "price one query under the policies",
            "--platform", "--prefill", "--decode", "--policy", policy=None)

    sweep = command("sweep", _cmd_sweep, "Fig. 13 TTFT speedup series",
                    "--platform", "--decode")
    sweep.add_argument(
        "--prefill-lengths", type=_positive_int, nargs="+", default=[8, 16, 32, 64, 128]
    )

    command("dataset", _cmd_dataset, "Figs. 15/16 dataset trace",
            "--platform", "--dataset", "--queries", "--seed")

    chaos = command(
        "chaos", _cmd_chaos,
        "seeded fault-injection campaign with reliability report",
        "--platform", "--seed", "--queries", "--policy", "--prefill",
        "--decode", "--out", "--metrics-out",
        n_queries=20, prefill_len=64, decode_len=16,
    )
    chaos.add_argument("--flip-rate", type=_nonneg_float, default=1.0,
                       help="expected transient single-bit flips per query")
    chaos.add_argument("--double-flip-rate", type=_nonneg_float, default=0.0,
                       help="P(uncorrectable double flip) per query")
    chaos.add_argument("--pte-corrupt-rate", type=_nonneg_float, default=0.0,
                       help="P(MapID bit flip in a live PTE) per query")
    chaos.add_argument("--mapping-corrupt-rate", type=_nonneg_float, default=0.0,
                       help="P(scrambled mapping-table entry) per query")
    chaos.add_argument("--stale-tlb-rate", type=_nonneg_float, default=0.0,
                       help="P(swallowed TLB shootdown) per query")
    chaos.add_argument("--alloc-fail-rate", type=_nonneg_float, default=0.0,
                       help="P(injected allocation failure) per query")
    chaos.add_argument("--pu-fail-at", type=_nonneg_int, default=None,
                       help="query index at which one PIM unit fails for good")
    chaos.add_argument("--crash-injections", type=_nonneg_int, default=0,
                       help="also run N crash injections through the MapID "
                       "journal and merge the audit into the report")
    chaos.add_argument("--kv-crash-injections", type=_nonneg_int, default=0,
                       help="with --crash-injections: also sweep N crash "
                       "injections through the KV block pool's journal")
    chaos.add_argument("--migration-crash-injections", type=_nonneg_int, default=0,
                       help="also sweep N crash injections through two-phase "
                       "MIGRATE transactions on the adaptive arena and audit "
                       "the never-torn invariant")

    serve = command(
        "serve", _cmd_serve,
        "serving runtime: multi-tenant stream with SLO report",
        "--platform", "--seed", "--dataset", "--policy", "--duration-ms",
        "--qps", "--load", "--deadline-ms", "--capacity", "--shed",
        "--pim-fault-rate", "--mapping-fault-rate", "--kv-blocks",
        "--block-tokens", "--mean-turns", "--out", "--trace-out",
        "--metrics-out",
    )
    serve.add_argument("--max-retries", type=_nonneg_int, default=3)
    serve.add_argument("--jitter", type=_half_open_unit_interval, default=0.1,
                       help="backoff jitter amplitude in [0, 1)")
    serve.add_argument("--adaptive", choices=("off", "static", "active"),
                       default="off",
                       help="online adaptive remapping: 'static' watches the "
                       "advisor without migrating, 'active' migrates the hot "
                       "arena behind a canary (whole-request loop: no --kv-blocks)")
    serve.add_argument("--adaptive-pin", type=int, default=None,
                       metavar="MAPID",
                       help="force the advisor recommendation to this MapID "
                       "(bad-advisor drill: the canary must roll it back)")
    serve.add_argument("--prefix-sharing",
                       action=argparse.BooleanOptionalAction, default=True,
                       help="share full prefix blocks across turns of a "
                       "conversation (--no-prefix-sharing to disable)")
    serve.add_argument("--think-time-ms", type=_positive_float, default=2000.0,
                       help="mean think time between conversation turns")
    serve.add_argument("--workload",
                       choices=("chat", "speculative", "moe", "coresident"),
                       default="chat",
                       help="serving workload shape; non-chat shapes swap "
                       "the repro.workloads decode into the whole-request "
                       "loop (no --kv-blocks, --adaptive off)")
    serve.add_argument("--draft-model", default="phi-1.5",
                       help="speculative: draft model name")
    serve.add_argument("--gamma", type=_positive_int, default=4,
                       help="speculative: draft tokens per round")
    serve.add_argument("--acceptance-rate", type=_unit_interval, default=0.8,
                       help="speculative: per-token acceptance probability")
    serve.add_argument("--experts", dest="n_experts", type=_positive_int,
                       default=8, help="moe: total expert count")
    serve.add_argument("--experts-per-token", type=_positive_int, default=2,
                       help="moe: experts routed per decode token")
    serve.add_argument("--resident-experts", type=_positive_int, default=4,
                       help="moe: DRAM-resident expert budget (LRU)")
    serve.add_argument("--secondary-model", default="phi-1.5",
                       help="coresident: the second co-resident model")
    serve.add_argument("--secondary-share", type=_open_unit_interval,
                       default=0.5,
                       help="coresident: fraction of traffic to the "
                       "secondary model")
    serve.add_argument("--trace-sample", type=_positive_int, default=8,
                       help="head-sampling period: trace every Nth query")
    serve.add_argument("--replay-check", action="store_true",
                       help="replay-diff oracle: run the workload twice at "
                       "the same seed with state-hash barriers and exit "
                       "nonzero on the first diverging barrier")
    serve.add_argument("--replay-barrier", type=_positive_int, default=16,
                       help="barrier cadence in completed requests "
                       "(with --replay-check)")

    trace = command(
        "trace", _cmd_trace,
        "short traced serving run: Chrome trace + metrics snapshot",
        "--platform", "--seed", "--dataset", "--policy", "--duration-ms",
        "--load", "--deadline-ms", "--capacity", "--kv-blocks",
        "--block-tokens", "--trace-out", "--metrics-out",
        duration_ms=10_000.0, load=0.7, queue_capacity=16, kv_blocks=256,
        trace_out="trace.json", metrics_out="metrics.json",
    )
    trace.add_argument("--sample-every", type=_positive_int, default=1,
                       help="head-sampling period: trace every Nth query")
    trace.add_argument("--advisor-sweep", action="store_true",
                       help="also run the advisor/selector agreement sweep "
                       "over every platform and report disagreements")

    fleet = command(
        "fleet", _cmd_fleet,
        "fleet run over heterogeneous devices, with device losses",
        "--seed", "--devices", "--kills", "--kill-gap-ms", "--recovery-ms",
        "--dataset", "--policy", "--duration-ms", "--qps", "--deadline-ms",
        "--mean-turns", "--capacity", "--shed", "--pim-fault-rate",
        "--mapping-fault-rate", "--block-tokens", "--out", "--metrics-out",
        duration_ms=5_000.0, qps=100.0, deadline_ms=400.0, mean_turns=3.0,
    )
    fleet.add_argument("--standby", dest="standby_devices", type=_nonneg_int,
                       default=0,
                       help="tail of the catalog parked for autoscale-up")
    fleet.add_argument("--shape", choices=("steady", "diurnal", "bursty"),
                       default="diurnal",
                       help="arrival-rate shape over the horizon")
    fleet.add_argument("--kv-blocks", type=_positive_int, default=64,
                       help="per-device KV block pool size")
    fleet.add_argument("--autoscale", action="store_true",
                       help="enable the health-gated autoscaler (needs "
                       "--standby > 0 to have headroom)")

    command(
        "fleet-chaos", _cmd_fleet_chaos,
        "fleet kill-K chaos campaign with audit oracles",
        "--seed", "--devices", "--kills", "--kill-gap-ms", "--recovery-ms",
        "--qps", "--deadline-ms", "--mean-turns", "--capacity", "--shed",
        "--out",
        kills=300, recovery_ms=10.0, qps=200.0, deadline_ms=400.0,
        mean_turns=3.0,
    )

    dse = command(
        "dse", _cmd_dse,
        "design-space exploration: parallel sweep + Pareto frontier",
        "--seed", "--duration-ms", "--qps", "--deadline-ms", "--capacity",
        "--block-tokens", "--out",
        duration_ms=8000.0, qps=2.0,
    )
    dse.add_argument("--workers", type=_positive_int, default=1,
                     help="worker processes; the report is byte-identical "
                     "for any value")
    dse.add_argument("--axes", action="append", metavar="NAME=V1,V2",
                     help="override one axis of the default grid, e.g. "
                     "--axes mapping=facil,soc-only (repeatable; axes: "
                     "platform, mapping, shed, kv_blocks, workload)")
    dse.add_argument("--top", type=_positive_int, default=None,
                     help="show only the top-N ranked frontier entries")
    dse.add_argument("--resume", action="store_true",
                     help="reuse completed points (matched by "
                     "config_hash + seed) from the --out file if present")
    dse.add_argument("--only", default=None, metavar="CONFIG_HASH",
                     help="evaluate a single point of the sweep standalone "
                     "and print its metrics (the repro path)")
    dse.add_argument("--point-seed", type=int, default=None,
                     help="with --only: the point's substream seed as "
                     "printed by the sweep report (default: derived from "
                     "--seed and the point's index)")

    analyze = command(
        "analyze", _cmd_analyze,
        "static analysis: mapping verifier, trace linter, repo lint",
    )
    analyze.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="text report or SARIF 2.1.0 JSON (json and sarif are "
        "synonyms)",
    )
    analyze.add_argument(
        "--pass", dest="passes", action="append",
        choices=("mapverify", "tracelint", "repolint", "gate", "sanitize"),
        help="run only the given pass(es); default: all",
    )
    analyze.add_argument(
        "--trace", action="append", metavar="PATH",
        help="also lint this request-trace file (repeatable)",
    )
    analyze.add_argument(
        "--spans", action="append", metavar="PATH",
        help="also lint this telemetry span file — Chrome-trace JSON or "
        "JSONL from the tracer (repeatable)",
    )
    analyze.add_argument(
        "--waive", action="append", metavar="RULE",
        help="drop findings of this rule ID (repeatable)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
