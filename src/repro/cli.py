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
    repro-facil trace    --trace-out trace.json   # traced run + metrics snapshot
    repro-facil dse      --workers 4              # design-space sweep + Pareto report
    repro-facil analyze  --format json            # static analysis gate

``chaos``, ``serve``, and ``fleet`` write machine-readable JSON reports
under ``benchmarks/results/`` and exit nonzero when any query went
unserved (for ``fleet``: when any request was lost or any post-recovery
audit found damage).

All commands take ``--platform`` (default ``jetson-agx-orin``).  Install
exposes the ``repro-facil`` script; the module also runs directly as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional

from repro.core.selector import MatrixConfig, build_selected_mapping, select_mapping
from repro.engine.metrics import geomean
from repro.engine.policies import POLICIES, InferenceEngine
from repro.engine.runner import dataset_eval, ttft_speedup_sweep
from repro.llm.datasets import ALPACA_LIKE, HUMANEVAL_AUTOCOMPLETE_LIKE
from repro.platforms.specs import ALL_PLATFORMS, PlatformSpec

_DATASETS = {
    ALPACA_LIKE.name: ALPACA_LIKE,
    HUMANEVAL_AUTOCOMPLETE_LIKE.name: HUMANEVAL_AUTOCOMPLETE_LIKE,
}


# -- argparse numeric validators ------------------------------------------
# Bad counts and rates should die at the parser with a flag-specific
# message, not hundreds of frames deep in the event loop.

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (got {value})"
        )
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer (got {value})"
        )
    return value


def _float_flag(rule: str, ok: Callable[[float], bool]) -> Callable[[str], float]:
    """An argparse ``type``: a number for which *ok* holds, else the
    error ``must be <rule>``."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a number")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule} (got {value})")
        return value

    return parse


_positive_float = _float_flag("positive", lambda v: v > 0)
_nonneg_float = _float_flag("non-negative", lambda v: v >= 0)
_unit_interval = _float_flag("in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_open_unit_interval = _float_flag("in (0, 1)", lambda v: 0.0 < v < 1.0)
#: probabilities and jitter amplitudes that the runtime requires below 1
_half_open_unit_interval = _float_flag("in [0, 1)", lambda v: 0.0 <= v < 1.0)


def _platform_by_name(name: str) -> PlatformSpec:
    for platform in ALL_PLATFORMS:
        if platform.name == name:
            return platform
    known = ", ".join(p.name for p in ALL_PLATFORMS)
    raise SystemExit(f"unknown platform {name!r}; known: {known}")


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
    print(f"{platform.name} / {engine.model.name}, prefill={args.prefill}, "
          f"decode={args.decode}\n")
    policies = [args.policy] if args.policy else list(POLICIES)
    print(f"{'policy':16s} {'TTFT':>10s} {'TTLT':>10s}  breakdown")
    for policy in policies:
        q = engine.run_query(policy, args.prefill, args.decode)
        parts = ", ".join(
            f"{k}={v / 1e6:.1f}ms" for k, v in q.breakdown.items()
        )
        print(f"{policy:16s} {q.ttft_ms:>8.1f}ms {q.ttlt_ms:>8.1f}ms  {parts}")


def _cmd_sweep(args: argparse.Namespace) -> None:
    platform = _platform_by_name(args.platform)
    engine = InferenceEngine(platform)
    lengths = tuple(args.prefill_lengths)
    points = ttft_speedup_sweep(engine, lengths, decode_len=args.decode)
    print(f"TTFT speedup of FACIL over hybrid-static on {platform.name}:")
    for point in points:
        print(f"  prefill {point.prefill:>4d}: {point.ttft_speedup:.2f}x "
              f"(facil {point.facil.ttft_ms:.1f}ms, "
              f"baseline {point.baseline.ttft_ms:.1f}ms)")
    print(f"  geomean: {geomean([p.ttft_speedup for p in points]):.2f}x")


def _cmd_dataset(args: argparse.Namespace) -> None:
    platform = _platform_by_name(args.platform)
    engine = InferenceEngine(platform)
    spec = _DATASETS.get(args.dataset)
    if spec is None:
        raise SystemExit(
            f"unknown dataset {args.dataset!r}; known: {sorted(_DATASETS)}"
        )
    result = dataset_eval(engine, spec, n_queries=args.queries, seed=args.seed)
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
    spec = CampaignSpec(
        seed=args.seed,
        n_queries=args.queries,
        policy=args.policy,
        prefill_len=args.prefill,
        decode_len=args.decode,
        flip_rate=args.flip_rate,
        double_flip_rate=args.double_flip_rate,
        pte_corrupt_rate=args.pte_corrupt_rate,
        mapping_corrupt_rate=args.mapping_corrupt_rate,
        stale_tlb_rate=args.stale_tlb_rate,
        alloc_fail_rate=args.alloc_fail_rate,
        pu_fail_at=args.pu_fail_at,
    )
    report = run_campaign(spec, engine=engine)
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

    try:
        if args.workload == "speculative":
            return SpeculativeSpec(
                draft_model=args.draft_model,
                gamma=args.gamma,
                acceptance_rate=args.acceptance_rate,
            )
        if args.workload == "moe":
            return ExpertPlacementSpec(
                n_experts=args.experts,
                experts_per_token=args.experts_per_token,
                resident_experts=args.resident_experts,
            )
        return CoResidencySpec(
            secondary_model=args.secondary_model,
            secondary_share=args.secondary_share,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _cmd_serve(args: argparse.Namespace) -> None:
    # Lazy import: the serving layer pulls in the reliability stack.
    from repro.serving import (
        ServingConfig,
        ServingRuntime,
        TenantSpec,
        poisson_workload,
        sustainable_qps,
    )

    platform = _platform_by_name(args.platform)
    engine = InferenceEngine(platform)
    spec = _DATASETS.get(args.dataset)
    if spec is None:
        raise SystemExit(
            f"unknown dataset {args.dataset!r}; known: {sorted(_DATASETS)}"
        )
    if args.adaptive != "off" and args.kv_blocks:
        raise SystemExit(
            "--adaptive runs on the whole-request loop only (drop --kv-blocks)"
        )
    workload_spec = _build_workload_spec(args)
    probe = TenantSpec(
        name="probe", dataset=spec, policy=args.policy,
        deadline_ms=args.deadline_ms,
    )
    capacity_qps = sustainable_qps(engine, probe, seed=args.seed)
    qps = args.qps if args.qps is not None else args.load * capacity_qps
    tenants = []
    if args.workload == "coresident":
        # split the offered rate between the two co-resident models
        share = workload_spec.secondary_share
        tenants.append(TenantSpec(
            name=spec.name, dataset=spec, policy=args.policy,
            qps=qps * (1.0 - share), deadline_ms=args.deadline_ms,
            mean_turns=args.mean_turns, think_time_ms=args.think_time_ms,
        ))
        tenants.append(TenantSpec(
            name=workload_spec.secondary_tenant, dataset=spec,
            policy=args.policy, qps=qps * share,
            deadline_ms=args.deadline_ms, mean_turns=args.mean_turns,
            think_time_ms=args.think_time_ms,
        ))
    else:
        tenants.append(TenantSpec(
            name=spec.name, dataset=spec, policy=args.policy, qps=qps,
            deadline_ms=args.deadline_ms, mean_turns=args.mean_turns,
            think_time_ms=args.think_time_ms,
        ))
    requests = poisson_workload(tenants, duration_ms=args.duration_ms, seed=args.seed)
    # Brown-out watermarks scale with the platform: saturation means a
    # few mean decode phases queued, whatever those cost here.
    import random as _random

    from repro.engine.policies import decode_on_pim

    probe_rng = _random.Random(args.seed)
    on_pim = decode_on_pim(args.policy)
    decode_works = [
        engine.decode_total_ns(t.prefill_tokens, t.decode_tokens, on_pim)
        for t in (spec.sample_one(probe_rng) for _ in range(50))
    ]
    mean_decode_ns = sum(decode_works) / len(decode_works)
    adaptive = None
    if args.adaptive != "off":
        from repro.adaptive import AdaptiveConfig

        adaptive = AdaptiveConfig(mode=args.adaptive, pinned_map_id=args.adaptive_pin)
    config = ServingConfig(
        seed=args.seed,
        queue_capacity=args.capacity,
        shed_policy=args.shed,
        max_retries=args.max_retries,
        jitter=args.jitter,
        pim_fault_rate=args.pim_fault_rate,
        mapping_fault_rate=args.mapping_fault_rate,
        brownout_high_ns=4.0 * mean_decode_ns,
        brownout_low_ns=1.0 * mean_decode_ns,
        kv_blocks=args.kv_blocks,
        block_tokens=args.block_tokens,
        prefix_sharing=args.prefix_sharing,
        adaptive=adaptive,
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
    from repro.serving import (
        ServingConfig,
        ServingRuntime,
        TenantSpec,
        poisson_workload,
        sustainable_qps,
    )
    from repro.telemetry import Telemetry

    platform = _platform_by_name(args.platform)
    engine = InferenceEngine(platform)
    spec = _DATASETS.get(args.dataset)
    if spec is None:
        raise SystemExit(
            f"unknown dataset {args.dataset!r}; known: {sorted(_DATASETS)}"
        )
    tenant = TenantSpec(
        name=spec.name, dataset=spec, policy=args.policy,
        deadline_ms=args.deadline_ms,
    )
    qps = args.load * sustainable_qps(engine, tenant, seed=args.seed)
    tenant = TenantSpec(
        name=spec.name, dataset=spec, policy=args.policy, qps=qps,
        deadline_ms=args.deadline_ms,
    )
    requests = poisson_workload(
        [tenant], duration_ms=args.duration_ms, seed=args.seed
    )
    config = ServingConfig(
        seed=args.seed,
        queue_capacity=args.capacity,
        shed_policy="degrade",
        kv_blocks=args.kv_blocks,
        block_tokens=args.block_tokens,
    )
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
    import json

    from repro.fleet import (
        BURSTY_OVERLOAD,
        DIURNAL,
        FleetChaosSpec,
        FleetConfig,
        FleetRuntime,
        SteadyShape,
        run_fleet_chaos,
        shaped_workload,
    )
    from repro.fleet.chaos import kill_schedule
    from repro.serving.workload import TenantSpec

    recovery_ms = args.recovery_ms
    if recovery_ms is None:
        recovery_ms = 10.0 if args.campaign else 50.0
    if args.campaign:
        # the campaign fleet has no standby members, autoscaler, fault
        # rates or telemetry lanes, and fixes its traffic and KV pool:
        # refuse what it would silently ignore
        ignored = {
            "--standby": args.standby > 0,
            "--autoscale": args.autoscale,
            "--pim-fault-rate": args.pim_fault_rate > 0.0,
            "--mapping-fault-rate": args.mapping_fault_rate > 0.0,
            "--metrics-out": args.metrics_out is not None,
            "--policy": args.policy is not None,
            "--shape": args.shape is not None,
            "--dataset": args.dataset is not None,
            "--duration-ms": args.duration_ms is not None,
            "--kv-blocks": args.kv_blocks is not None,
            "--block-tokens": args.block_tokens is not None,
        }
        for flag, given in ignored.items():
            if given:
                raise SystemExit(f"{flag} does not apply to fleet --campaign")
        try:
            spec = FleetChaosSpec(
                n_devices=args.devices,
                kills=args.kills if args.kills else 300,
                seed=args.seed,
                kill_gap_ms=args.kill_gap_ms,
                recovery_ms=recovery_ms,
                qps=args.qps if args.qps is not None else 200.0,
                deadline_ms=args.deadline_ms,
                mean_turns=args.mean_turns,
                queue_capacity=args.capacity,
                shed_policy=args.shed,
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        report = run_fleet_chaos(spec)
        d = report.to_dict()
        print(f"fleet chaos campaign: seed={d['seed']} "
              f"devices={d['n_devices']} kills={d['kills_applied']}"
              f"/{d['kills_requested']}")
        print(f"crashes by site : " + ", ".join(
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
        return

    if args.standby >= args.devices:
        raise SystemExit(
            f"--standby must be less than --devices ({args.standby} >= "
            f"{args.devices}): at least one device starts in rotation"
        )
    shapes = {
        "steady": SteadyShape(),
        "diurnal": DIURNAL,
        "bursty": BURSTY_OVERLOAD,
    }
    # the six flags a campaign refuses take no default on the command
    # line, so that giving one at its plain-run value is still refused
    shape = shapes[args.shape if args.shape is not None else "diurnal"]
    spec = _DATASETS.get(args.dataset if args.dataset is not None else ALPACA_LIKE.name)
    if spec is None:
        raise SystemExit(
            f"unknown dataset {args.dataset!r}; known: {sorted(_DATASETS)}"
        )
    config = FleetConfig(
        n_devices=args.devices,
        standby_devices=args.standby,
        seed=args.seed,
        queue_capacity=args.capacity,
        shed_policy=args.shed,
        pim_fault_rate=args.pim_fault_rate,
        mapping_fault_rate=args.mapping_fault_rate,
        kv_blocks=args.kv_blocks if args.kv_blocks is not None else 64,
        block_tokens=args.block_tokens if args.block_tokens is not None else 16,
        recovery_ms=recovery_ms,
        autoscale=args.autoscale,
    )
    tenant = TenantSpec(
        name=spec.name, dataset=spec,
        policy=args.policy if args.policy is not None else "facil",
        qps=args.qps if args.qps is not None else 100.0,
        deadline_ms=args.deadline_ms, mean_turns=args.mean_turns,
    )
    duration_ms = args.duration_ms if args.duration_ms is not None else 5_000.0
    requests = shaped_workload([tenant], duration_ms, shape=shape, seed=args.seed)
    # The campaign's schedule, without its recovery dwell: there is no
    # kill-count oracle here, so a kill that lands on a still-quarantined
    # device — or on a STANDBY/DRAINING member parked out of rotation
    # (--standby/--autoscale) — is simply skipped by the runtime instead
    # of retargeted.
    kills, _ = kill_schedule(args.devices, args.kills, args.kill_gap_ms, args.seed)
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

    knobs = {
        "duration_ms": args.duration_ms,
        "qps": args.qps,
        "deadline_ms": args.deadline_ms,
        "queue_capacity": args.capacity,
        "block_tokens": args.block_tokens,
    }
    try:
        if args.axes:
            spec = SweepSpec(
                seed=args.seed,
                axes=tuple(parse_axis_overrides(args.axes)),
                **knobs,
            )
        else:
            spec = default_sweep(seed=args.seed, **knobs)
    except ValueError as exc:
        raise SystemExit(str(exc))

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
        "--capacity", str(args.capacity),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-facil",
        description="FACIL (HPCA 2025) reproduction: SoC-PIM cooperative "
        "on-device LLM inference with flexible DRAM address mapping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("platforms", help="list the Table II platform catalog")

    mapping = sub.add_parser("mapping", help="show the selector's decision")
    mapping.add_argument("--rows", type=_positive_int, required=True)
    mapping.add_argument("--cols", type=_positive_int, required=True)
    mapping.add_argument("--dtype-bytes", type=_positive_int, default=2)

    query = sub.add_parser("query", help="price one query under the policies")
    query.add_argument("--prefill", type=_positive_int, default=24)
    query.add_argument("--decode", type=_positive_int, default=64)
    query.add_argument("--policy", choices=POLICIES, default=None)

    sweep = sub.add_parser("sweep", help="Fig. 13 TTFT speedup series")
    sweep.add_argument(
        "--prefill-lengths", type=_positive_int, nargs="+", default=[8, 16, 32, 64, 128]
    )
    sweep.add_argument("--decode", type=_positive_int, default=64)

    dataset = sub.add_parser("dataset", help="Figs. 15/16 dataset trace")
    dataset.add_argument(
        "--dataset", default=ALPACA_LIKE.name, help=f"one of {sorted(_DATASETS)}"
    )
    dataset.add_argument("--queries", type=_positive_int, default=100)
    dataset.add_argument("--seed", type=int, default=0)

    chaos = sub.add_parser(
        "chaos", help="seeded fault-injection campaign with reliability report"
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--queries", type=_positive_int, default=20)
    chaos.add_argument("--policy", choices=POLICIES, default="facil")
    chaos.add_argument("--prefill", type=_positive_int, default=64)
    chaos.add_argument("--decode", type=_positive_int, default=16)
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
    chaos.add_argument("--out", default=None, metavar="PATH",
                       help="JSON report path (default: benchmarks/results/)")
    chaos.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="also write the campaign's telemetry metrics "
                       "snapshot (JSON) to this path")

    serve = sub.add_parser(
        "serve", help="serving runtime: multi-tenant stream with SLO report"
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--dataset", default=ALPACA_LIKE.name,
                       help=f"one of {sorted(_DATASETS)}")
    serve.add_argument("--policy", choices=POLICIES, default="facil")
    serve.add_argument("--duration-ms", type=_positive_float, default=60_000.0)
    serve.add_argument("--qps", type=_positive_float, default=None,
                       help="arrival rate; default: --load x sustainable rate")
    serve.add_argument("--load", type=_positive_float, default=0.5,
                       help="arrival rate as a fraction of sustainable "
                       "(ignored with --qps)")
    serve.add_argument("--deadline-ms", type=_positive_float, default=10_000.0,
                       help="per-request TTFT budget")
    serve.add_argument("--capacity", type=_positive_int, default=8,
                       help="admission queue bound")
    serve.add_argument("--shed", choices=("reject", "degrade", "drop-oldest"),
                       default="reject", help="load-shedding policy")
    serve.add_argument("--max-retries", type=_nonneg_int, default=3)
    serve.add_argument("--jitter", type=_half_open_unit_interval, default=0.1,
                       help="backoff jitter amplitude in [0, 1)")
    serve.add_argument("--pim-fault-rate", type=_half_open_unit_interval,
                       default=0.0,
                       help="P(transient fault) per PIM phase attempt")
    serve.add_argument("--mapping-fault-rate", type=_half_open_unit_interval,
                       default=0.0,
                       help="P(transient fault) per flexible-mapping prefill")
    serve.add_argument("--kv-blocks", type=_nonneg_int, default=0,
                       help="KV block pool size; > 0 switches to the paged-KV "
                       "continuous-batching scheduler")
    serve.add_argument("--block-tokens", type=_positive_int, default=16,
                       help="tokens per KV block")
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
    serve.add_argument("--mean-turns", type=_positive_float, default=1.0,
                       help="mean turns per conversation (> 1 emits "
                       "multi-turn traffic)")
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
    serve.add_argument("--experts", type=_positive_int, default=8,
                       help="moe: total expert count")
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
    serve.add_argument("--out", default=None, metavar="PATH",
                       help="JSON report path (default: benchmarks/results/)")
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Chrome-trace JSON of the run's spans")
    serve.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write a metrics snapshot (JSON) of the run")
    serve.add_argument("--trace-sample", type=_positive_int, default=8,
                       help="head-sampling period: trace every Nth query")
    serve.add_argument("--replay-check", action="store_true",
                       help="replay-diff oracle: run the workload twice at "
                       "the same seed with state-hash barriers and exit "
                       "nonzero on the first diverging barrier")
    serve.add_argument("--replay-barrier", type=_positive_int, default=16,
                       help="barrier cadence in completed requests "
                       "(with --replay-check)")

    trace = sub.add_parser(
        "trace",
        help="short traced serving run: Chrome trace + metrics snapshot",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--dataset", default=ALPACA_LIKE.name,
                       help=f"one of {sorted(_DATASETS)}")
    trace.add_argument("--policy", choices=POLICIES, default="facil")
    trace.add_argument("--duration-ms", type=_positive_float, default=10_000.0)
    trace.add_argument("--load", type=_positive_float, default=0.7,
                       help="arrival rate as a fraction of sustainable")
    trace.add_argument("--deadline-ms", type=_positive_float, default=10_000.0)
    trace.add_argument("--capacity", type=_positive_int, default=16)
    trace.add_argument("--kv-blocks", type=_nonneg_int, default=256,
                       help="KV block pool size (0: whole-request serving loop)")
    trace.add_argument("--block-tokens", type=_positive_int, default=16)
    trace.add_argument("--sample-every", type=_positive_int, default=1,
                       help="head-sampling period: trace every Nth query")
    trace.add_argument("--trace-out", default="trace.json", metavar="PATH")
    trace.add_argument("--metrics-out", default="metrics.json",
                       metavar="PATH")
    trace.add_argument("--advisor-sweep", action="store_true",
                       help="also run the advisor/selector agreement sweep "
                       "over every platform and report disagreements")

    fleet = sub.add_parser(
        "fleet",
        help="fleet run over heterogeneous devices, with device losses",
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--devices", type=_positive_int, default=4,
                       help="fleet size (heterogeneous Table II catalog)")
    fleet.add_argument("--standby", type=_nonneg_int, default=0,
                       help="tail of the catalog parked for autoscale-up")
    fleet.add_argument("--campaign", action="store_true",
                       help="run the kill-K chaos campaign (audit oracles) "
                       "instead of a workload-shaped fleet run; it fixes its "
                       "traffic and KV pool")
    fleet.add_argument("--kills", type=_nonneg_int, default=0,
                       help="seeded device losses to schedule "
                       "(--campaign default: 300)")
    fleet.add_argument("--kill-gap-ms", type=_positive_float, default=20.0,
                       help="mean gap between consecutive kills")
    fleet.add_argument("--recovery-ms", type=_positive_float, default=None,
                       help="quarantine dwell before the timed revive "
                       "(default 50; campaign 10)")
    fleet.add_argument("--dataset", default=None,
                       help=f"one of {sorted(_DATASETS)} (default alpaca-like)")
    fleet.add_argument("--policy", choices=POLICIES, default=None,
                       help="default facil")
    fleet.add_argument("--shape", choices=("steady", "diurnal", "bursty"),
                       default=None,
                       help="arrival-rate shape over the horizon (default diurnal)")
    fleet.add_argument("--duration-ms", type=_positive_float, default=None,
                       help="default 5000")
    fleet.add_argument("--qps", type=_positive_float, default=None,
                       help="peak arrival rate (default 100; campaign 200)")
    fleet.add_argument("--deadline-ms", type=_positive_float, default=400.0,
                       help="per-request TTFT budget")
    fleet.add_argument("--mean-turns", type=_positive_float, default=3.0,
                       help="mean turns per conversation")
    fleet.add_argument("--capacity", type=_positive_int, default=8,
                       help="per-device admission queue bound")
    fleet.add_argument("--shed", choices=("reject", "degrade", "drop-oldest"),
                       default="reject", help="per-device shedding policy")
    fleet.add_argument("--pim-fault-rate", type=_half_open_unit_interval,
                       default=0.0,
                       help="P(transient fault) per PIM phase attempt")
    fleet.add_argument("--mapping-fault-rate", type=_half_open_unit_interval,
                       default=0.0,
                       help="P(transient fault) per flexible-mapping prefill")
    fleet.add_argument("--kv-blocks", type=_positive_int, default=None,
                       help="per-device KV block pool size (default 64)")
    fleet.add_argument("--block-tokens", type=_positive_int, default=None,
                       help="tokens per KV block (default 16)")
    fleet.add_argument("--autoscale", action="store_true",
                       help="enable the health-gated autoscaler (needs "
                       "--standby > 0 to have headroom)")
    fleet.add_argument("--out", default=None, metavar="PATH",
                       help="JSON report path (default: benchmarks/results/)")
    fleet.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write per-device telemetry lanes (JSON)")

    dse = sub.add_parser(
        "dse",
        help="design-space exploration: parallel sweep + Pareto frontier",
    )
    dse.add_argument("--seed", type=int, default=0,
                     help="sweep seed; every point derives its own "
                     "substream from it")
    dse.add_argument("--workers", type=_positive_int, default=1,
                     help="worker processes; the report is byte-identical "
                     "for any value")
    dse.add_argument("--axes", action="append", metavar="NAME=V1,V2",
                     help="override one axis of the default grid, e.g. "
                     "--axes mapping=facil,soc-only (repeatable; axes: "
                     "platform, mapping, shed, kv_blocks, workload)")
    dse.add_argument("--duration-ms", type=_positive_float, default=8000.0,
                     help="simulated horizon per point")
    dse.add_argument("--qps", type=_positive_float, default=2.0,
                     help="offered arrival rate per point")
    dse.add_argument("--deadline-ms", type=_positive_float, default=10_000.0,
                     help="per-request TTFT budget")
    dse.add_argument("--capacity", type=_positive_int, default=8,
                     help="admission queue bound")
    dse.add_argument("--block-tokens", type=_positive_int, default=16,
                     help="tokens per KV block (kv_blocks > 0 points)")
    dse.add_argument("--top", type=_positive_int, default=None,
                     help="show only the top-N ranked frontier entries")
    dse.add_argument("--out", default=None, metavar="PATH",
                     help="sweep report JSON path "
                     "(default: benchmarks/results/dse_seed<seed>.json)")
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

    analyze = sub.add_parser(
        "analyze",
        help="static analysis: mapping verifier, trace linter, repo lint",
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

    for sub_parser in (mapping, query, sweep, dataset, chaos, serve, trace):
        sub_parser.add_argument("--platform", default="jetson-agx-orin")
    return parser


_COMMANDS = {
    "platforms": _cmd_platforms,
    "mapping": _cmd_mapping,
    "query": _cmd_query,
    "sweep": _cmd_sweep,
    "dataset": _cmd_dataset,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "fleet": _cmd_fleet,
    "dse": _cmd_dse,
    "analyze": _cmd_analyze,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
