"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

SUBCOMMANDS = (
    "platforms", "mapping", "query", "sweep", "dataset", "chaos", "serve",
    "trace", "fleet", "fleet-chaos", "dse", "analyze",
)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mapping_args(self):
        args = build_parser().parse_args(["mapping", "--rows", "8", "--cols", "16"])
        assert args.rows == 8 and args.cols == 16
        assert args.platform == "jetson-agx-orin"

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--help"])
        assert excinfo.value.code == 0
        assert "{" + ",".join(SUBCOMMANDS) + "}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_renders(self, command, capsys):
        # argparse %-formats help strings only when it renders them
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro-facil {command}")


class _Built(Exception):
    """Stops a command at the call that receives the record it built."""


def _built(monkeypatch, module, name, argv):
    """Run *argv* up to its call of ``module.name``; return that call's
    positional and keyword arguments."""
    calls = []

    def capture(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Built

    monkeypatch.setattr(module, name, capture)
    with pytest.raises(_Built):
        main(argv)
    return calls[0]


class TestDefaultRecords:
    """The record each subcommand builds from its defaults: a drifted
    default fails here, not only in a committed report's diff."""

    def test_fleet_chaos(self, monkeypatch):
        import repro.fleet
        from repro.fleet import FleetChaosSpec

        (spec,), _ = _built(
            monkeypatch, repro.fleet, "run_fleet_chaos", ["fleet-chaos"]
        )
        # the campaign sheds by rejecting, unlike the spec's default
        assert spec == FleetChaosSpec(shed_policy="reject")
        assert (spec.kills, spec.recovery_ms, spec.qps) == (300, 10.0, 200.0)

    def test_fleet(self, monkeypatch):
        import repro.fleet
        from repro.fleet import DIURNAL, FleetConfig
        from repro.llm.datasets import ALPACA_LIKE
        from repro.serving import TenantSpec

        shaped = []
        monkeypatch.setattr(
            repro.fleet, "shaped_workload",
            lambda *args, **kwargs: shaped.append((args, kwargs)) or [],
        )
        (config,), _ = _built(monkeypatch, repro.fleet, "FleetRuntime", ["fleet"])
        assert config == FleetConfig()
        assert (config.recovery_ms, config.kv_blocks, config.block_tokens) == (
            50.0, 64, 16
        )
        [((tenants, duration_ms), kwargs)] = shaped
        assert tenants == [TenantSpec(
            name=ALPACA_LIKE.name, dataset=ALPACA_LIKE, policy="facil",
            qps=100.0, deadline_ms=400.0, mean_turns=3.0,
        )]
        assert duration_ms == 5_000.0 and kwargs["shape"] is DIURNAL

    def test_serve(self, monkeypatch):
        import repro.serving
        from repro.serving import ServingConfig

        (_, config), kwargs = _built(
            monkeypatch, repro.serving, "ServingRuntime",
            ["serve", "--duration-ms", "3000"],
        )
        # serve jitters its backoff by default; the record does not
        assert config == ServingConfig(
            jitter=0.1,
            brownout_high_ns=config.brownout_high_ns,
            brownout_low_ns=config.brownout_low_ns,
        )
        assert config.brownout_high_ns == 4.0 * config.brownout_low_ns > 0
        assert kwargs["workload"] is None

    def test_trace(self, monkeypatch):
        import repro.serving
        from repro.serving import ServingConfig

        (_, config), _ = _built(
            monkeypatch, repro.serving, "ServingRuntime",
            ["trace", "--duration-ms", "3000"],
        )
        assert config == ServingConfig(
            queue_capacity=16, shed_policy="degrade", kv_blocks=256
        )

    @pytest.mark.parametrize("workload", ["speculative", "moe", "coresident"])
    def test_serve_workload_specs(self, monkeypatch, workload):
        import repro.serving
        from repro.workloads import (
            CoResidencySpec,
            ExpertPlacementSpec,
            SpeculativeSpec,
        )

        # --block-tokens sizes the serving loop's pool, not the spec's
        _, kwargs = _built(
            monkeypatch, repro.serving, "ServingRuntime",
            ["serve", "--workload", workload, "--qps", "2",
             "--duration-ms", "1000", "--block-tokens", "32"],
        )
        expected = {
            "speculative": SpeculativeSpec(),
            "moe": ExpertPlacementSpec(),
            "coresident": CoResidencySpec(),
        }
        assert kwargs["workload"] == expected[workload]

    def test_chaos(self, monkeypatch):
        import repro.reliability
        from repro.reliability import CampaignSpec

        (spec,), _ = _built(
            monkeypatch, repro.reliability, "run_campaign", ["chaos"]
        )
        assert spec == CampaignSpec()

    def test_dse(self, monkeypatch):
        import repro.dse
        from repro.dse import default_sweep

        (spec,), _ = _built(monkeypatch, repro.dse, "run_sweep", ["dse"])
        assert spec == default_sweep(seed=0)


class TestCommands:
    def test_platforms_lists_table2(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        for name in ("jetson-agx-orin", "macbook-pro-m3-max",
                     "ideapad-slim-5", "iphone-15-pro"):
            assert name in out

    def test_mapping_selector_output(self, capsys):
        main(["mapping", "--rows", "4096", "--cols", "14336"])
        out = capsys.readouterr().out
        assert "selected MapID  : 1" in out
        assert "8 PUs per row" in out
        assert "channel[" in out

    def test_query_all_policies(self, capsys):
        main(["query", "--prefill", "8", "--decode", "4"])
        out = capsys.readouterr().out
        for policy in ("soc-only", "hybrid-static", "hybrid-dynamic", "facil"):
            assert policy in out

    def test_query_single_policy(self, capsys):
        main(["query", "--policy", "facil", "--prefill", "8", "--decode", "4"])
        out = capsys.readouterr().out
        assert "facil" in out
        assert "soc-only" not in out

    def test_sweep(self, capsys):
        main(["sweep", "--prefill-lengths", "8", "16", "--decode", "8"])
        out = capsys.readouterr().out
        assert "geomean" in out

    def test_dataset(self, capsys):
        main(["dataset", "--queries", "10"])
        out = capsys.readouterr().out
        assert "FACIL vs hybrid-static" in out

    def test_unknown_platform_exits(self):
        with pytest.raises(SystemExit, match="unknown platform"):
            main(["query", "--platform", "pixel-9000"])

    def test_unknown_dataset_exits(self):
        with pytest.raises(SystemExit, match="unknown dataset"):
            main(["dataset", "--dataset", "imagenet"])


class TestServeCommand:
    def test_serve_writes_report_and_exits_zero(self, capsys, tmp_path):
        out = tmp_path / "serve.json"
        assert main([
            "serve", "--seed", "0", "--duration-ms", "5000",
            "--load", "0.3", "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "sustainable" in text
        assert "SLO attainment" in text
        import json

        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert report["unserved"] == 0
        assert report["offered"] == report["served"] + report["rejected"] \
            + report["dropped"] + report["timed_out"] + report["aborted"]

    def test_serve_exits_nonzero_when_queries_go_unserved(self, tmp_path):
        # sub-millisecond TTFT budget: nothing can be served in time
        with pytest.raises(SystemExit, match="unserved"):
            main([
                "serve", "--seed", "0", "--duration-ms", "3000",
                "--qps", "2", "--deadline-ms", "0.001",
                "--out", str(tmp_path / "serve.json"),
            ])

    def test_serve_rejects_unknown_shed_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--shed", "lifo"])

    def test_serve_with_kv_pool_reports_kv_section(self, capsys, tmp_path):
        out = tmp_path / "serve_kv.json"
        assert main([
            "serve", "--seed", "0", "--duration-ms", "20000",
            "--load", "0.3", "--kv-blocks", "256", "--mean-turns", "3",
            "--think-time-ms", "200", "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "kv pool" in text
        assert "prefix sharing" in text
        import json

        report = json.loads(out.read_text())
        assert report["kv"]["num_blocks"] == 256
        assert report["kv"]["audit_failures"] == []

    def test_serve_kv_flags_parse(self):
        args = build_parser().parse_args([
            "serve", "--kv-blocks", "128", "--block-tokens", "32",
            "--no-prefix-sharing", "--mean-turns", "2.5",
        ])
        assert args.kv_blocks == 128
        assert args.block_tokens == 32
        assert args.prefix_sharing is False
        assert args.mean_turns == 2.5

    def test_serve_adaptive_flags_parse(self):
        args = build_parser().parse_args([
            "serve", "--adaptive", "active", "--adaptive-pin", "0",
        ])
        assert args.adaptive == "active"
        assert args.adaptive_pin == 0
        assert build_parser().parse_args(["serve"]).adaptive == "off"

    def test_serve_adaptive_rejects_kv_scheduler(self, tmp_path):
        with pytest.raises(SystemExit, match="whole-request loop"):
            main([
                "serve", "--adaptive", "active", "--kv-blocks", "64",
                "--duration-ms", "1000",
                "--out", str(tmp_path / "serve.json"),
            ])

    def test_serve_adaptive_reports_adaptive_section(self, capsys, tmp_path):
        out = tmp_path / "serve_adaptive.json"
        assert main([
            "serve", "--seed", "0", "--duration-ms", "5000",
            "--platform", "iphone-15-pro", "--load", "0.3",
            "--adaptive", "static", "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "adaptive" in text
        import json

        report = json.loads(out.read_text())
        assert report["adaptive"]["mode"] == "static"
        assert report["adaptive"]["migrations_started"] == 0

    def test_serve_replay_check_passes_on_deterministic_run(
            self, capsys, tmp_path):
        out = tmp_path / "serve_replay.json"
        assert main([
            "serve", "--seed", "0", "--duration-ms", "5000",
            "--load", "0.3", "--replay-check", "--replay-barrier", "4",
            "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "replay-diff: OK" in text
        assert "barriers identical" in text
        import json

        # the report written is the first run's, and it is still complete
        report = json.loads(out.read_text())
        assert report["ok"] is True

    @pytest.mark.parametrize("workload", ["speculative", "moe", "coresident"])
    def test_serve_workload_replay_check_records_barriers(
            self, capsys, tmp_path, workload):
        assert main([
            "serve", "--platform", "iphone-15-pro", "--workload", workload,
            "--seed", "0", "--duration-ms", "30000", "--load", "0.5",
            "--replay-check", "--replay-barrier", "4",
            "--out", str(tmp_path / "serve_replay.json"),
        ]) == 0
        # 9 offered requests: epochs at 0, 4 and 8 plus the final snap
        assert "replay-diff: OK (4 barriers identical)" in (
            capsys.readouterr().out
        )

    @pytest.mark.parametrize("workload", ["moe", "coresident"])
    def test_serve_workload_clean_run_exits_zero(self, tmp_path, workload):
        # the nightly workloads job's command line
        assert main([
            "serve", "--workload", workload, "--qps", "2",
            "--duration-ms", "1000", "--seed", "7",
            "--out", str(tmp_path / "serve.json"),
        ]) == 0

    def test_serve_workload_conservation_finding_fails(
            self, tmp_path, monkeypatch):
        from repro.workloads.moe import ExpertPool

        leak = "mapping table holds 2 entries (want conventional only)"
        monkeypatch.setattr(
            ExpertPool, "conservation_findings", lambda self: [leak, "another"]
        )
        out = tmp_path / "serve.json"
        with pytest.raises(SystemExit) as exc_info:
            main([
                "serve", "--workload", "moe", "--qps", "2",
                "--duration-ms", "1000", "--seed", "7", "--out", str(out),
            ])
        message = str(exc_info.value.code)
        assert message.startswith("2 moe workload conservation finding(s)")
        assert message.endswith(f"first: {leak}")
        assert out.exists()  # the report is still written for triage

    def test_serve_replay_check_rejects_telemetry_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="replay-check"):
            main([
                "serve", "--duration-ms", "1000", "--replay-check",
                "--trace-out", str(tmp_path / "trace.json"),
            ])

    def test_serve_replay_flags_parse(self):
        args = build_parser().parse_args([
            "serve", "--replay-check", "--replay-barrier", "8",
        ])
        assert args.replay_check is True
        assert args.replay_barrier == 8
        assert build_parser().parse_args(["serve"]).replay_check is False


class TestChaosCommand:
    def test_chaos_with_crash_injections_writes_report(self, capsys, tmp_path):
        out = tmp_path / "chaos.json"
        assert main([
            "chaos", "--seed", "0", "--queries", "6",
            "--crash-injections", "20", "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "crash campaign" in text
        import json

        report = json.loads(out.read_text())
        assert report["campaign"]["silent"] == 0
        assert report["crash"]["ok"] is True
        assert report["crash"]["n_injections"] == 20

    def test_chaos_kv_crash_injections(self, capsys, tmp_path):
        out = tmp_path / "chaos_kv.json"
        assert main([
            "chaos", "--seed", "0", "--queries", "4",
            "--crash-injections", "10", "--kv-crash-injections", "12",
            "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "kv injections" in text
        import json

        report = json.loads(out.read_text())
        assert report["crash"]["kv_injections"] == 12
        assert report["crash"]["kv_leaked_refcounts"] == 0
        assert report["crash"]["kv_final_clean"] is True

    def test_chaos_migration_crash_injections(self, capsys, tmp_path):
        out = tmp_path / "chaos_migration.json"
        assert main([
            "chaos", "--seed", "0", "--queries", "4",
            "--migration-crash-injections", "2", "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "mig injections" in text
        import json

        report = json.loads(out.read_text())
        assert report["crash"]["migration_injections"] == 2
        assert report["crash"]["torn_mappings"] == 0
        assert report["crash"]["migration_final_clean"] is True
        assert report["crash"]["ok"] is True

    def test_chaos_migration_flag_parses(self):
        args = build_parser().parse_args([
            "chaos", "--migration-crash-injections", "500",
        ])
        assert args.migration_crash_injections == 500

    def test_chaos_exits_nonzero_on_audit_finding(self, tmp_path, monkeypatch):
        """ANY post-recovery finding must fail the run, even when the
        aggregate counters look clean."""
        import repro.serving.crashes as crashes

        real = crashes.run_crash_campaign

        def rigged(**kwargs):
            report = real(**kwargs)
            report.failures.append("injection 3: armed crash never fired")
            return report

        monkeypatch.setattr(crashes, "run_crash_campaign", rigged)
        with pytest.raises(SystemExit, match="finding"):
            main([
                "chaos", "--seed", "0", "--queries", "4",
                "--migration-crash-injections", "1",
                "--out", str(tmp_path / "chaos.json"),
            ])

    def test_chaos_exits_nonzero_on_torn_mapping(self, tmp_path, monkeypatch):
        import repro.serving.crashes as crashes

        real = crashes.run_crash_campaign

        def rigged(**kwargs):
            report = real(**kwargs)
            report.torn_mappings = 1
            return report

        monkeypatch.setattr(crashes, "run_crash_campaign", rigged)
        with pytest.raises(SystemExit, match="audit"):
            main([
                "chaos", "--seed", "0", "--queries", "4",
                "--migration-crash-injections", "1",
                "--out", str(tmp_path / "chaos.json"),
            ])


class TestTraceCommand:
    def test_trace_writes_both_artifacts(self, capsys, tmp_path):
        trace_out = tmp_path / "trace.json"
        metrics_out = tmp_path / "metrics.json"
        assert main([
            "trace", "--seed", "0", "--duration-ms", "20000",
            "--platform", "iphone-15-pro", "--load", "1.0",
            "--trace-out", str(trace_out),
            "--metrics-out", str(metrics_out),
        ]) == 0
        text = capsys.readouterr().out
        assert "spans by layer" in text
        assert "trace written to" in text
        assert "metrics written to" in text
        import json

        trace = json.loads(trace_out.read_text())
        layers = {
            e["cat"] for e in trace["traceEvents"] if e.get("ph") == "X"
        }
        assert layers == {"serving", "engine", "kvcache", "controller", "dram"}
        snapshot = json.loads(metrics_out.read_text())
        names = {m["name"] for m in snapshot["metrics"]}
        assert "dram_row_hits_total" in names
        assert "controller_mapid_mux_switches_total" in names
        assert "serving_requests_total" in names

    def test_trace_defaults_parse(self):
        args = build_parser().parse_args(["trace"])
        assert args.trace_out == "trace.json"
        assert args.metrics_out == "metrics.json"
        assert args.sample_every == 1
        assert args.kv_blocks == 256
        assert args.advisor_sweep is False

    def test_serve_trace_flags_write_artifacts(self, capsys, tmp_path):
        trace_out = tmp_path / "trace.json"
        metrics_out = tmp_path / "metrics.json"
        assert main([
            "serve", "--seed", "0", "--duration-ms", "3000",
            "--load", "0.3", "--out", str(tmp_path / "serve.json"),
            "--trace-out", str(trace_out),
            "--metrics-out", str(metrics_out),
            "--trace-sample", "2",
        ]) == 0
        import json

        assert json.loads(trace_out.read_text())["traceEvents"]
        assert json.loads(metrics_out.read_text())["schema_version"] == 1

    def test_chaos_metrics_out(self, capsys, tmp_path):
        metrics_out = tmp_path / "chaos_metrics.json"
        assert main([
            "chaos", "--seed", "0", "--queries", "4",
            "--out", str(tmp_path / "chaos.json"),
            "--metrics-out", str(metrics_out),
        ]) == 0
        import json

        names = {
            m["name"]
            for m in json.loads(metrics_out.read_text())["metrics"]
        }
        assert "faults_injected_total" in names
        assert "campaign_availability" in names

    def test_analyze_accepts_span_files(self, tmp_path):
        args = build_parser().parse_args([
            "analyze", "--spans", "a.jsonl", "--spans", "b.json",
        ])
        assert args.spans == ["a.jsonl", "b.json"]


class TestNumericFlagValidation:
    """Bad counts and rates die at the parser with a flag-specific
    argparse error, never deep inside the event loop."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--trace-sample", "0"],
        ["serve", "--trace-sample", "-3"],
        ["serve", "--capacity", "0"],
        ["serve", "--max-retries", "-1"],
        ["serve", "--kv-blocks", "-1"],
        ["serve", "--block-tokens", "0"],
        ["serve", "--duration-ms", "0"],
        ["serve", "--qps", "-2"],
        ["serve", "--deadline-ms", "0"],
        ["serve", "--pim-fault-rate", "-0.1"],
        ["serve", "--replay-barrier", "0"],
        ["trace", "--sample-every", "0"],
        ["trace", "--kv-blocks", "-5"],
        ["chaos", "--queries", "0"],
        ["chaos", "--crash-injections", "-1"],
        ["chaos", "--kv-crash-injections", "-1"],
        ["chaos", "--migration-crash-injections", "-2"],
        ["dataset", "--queries", "-4"],
        ["mapping", "--rows", "0"],
        ["mapping", "--dtype-bytes", "-2"],
        ["fleet", "--devices", "0"],
        ["fleet", "--kills", "-1"],
        ["fleet", "--standby", "-1"],
        ["fleet", "--kv-blocks", "0"],
        ["fleet", "--recovery-ms", "-5"],
        ["fleet", "--qps", "0"],
        ["serve", "--jitter", "1.5"],
        ["serve", "--jitter", "-0.5"],
        ["serve", "--pim-fault-rate", "1.0"],
        ["serve", "--mapping-fault-rate", "1.0"],
        ["fleet", "--pim-fault-rate", "1.0"],
        ["fleet", "--mapping-fault-rate", "1.0"],
    ])
    def test_zero_or_negative_counts_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2  # argparse usage error
        err = capsys.readouterr().err
        assert argv[1] in err  # the offending flag is named
        assert "must be" in err

    @pytest.mark.parametrize("argv", [
        ["serve", "--trace-sample", "four"],
        ["serve", "--qps", "fast"],
        ["fleet", "--devices", "3.5"],
    ])
    def test_non_numeric_text_rejected(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_valid_boundaries_still_parse(self):
        args = build_parser().parse_args([
            "serve", "--trace-sample", "1", "--max-retries", "0",
            "--kv-blocks", "0", "--pim-fault-rate", "0.0",
        ])
        assert args.trace_sample == 1 and args.max_retries == 0
        assert args.kv_blocks == 0 and args.pim_fault_rate == 0.0

    @pytest.mark.parametrize("command", ["serve", "fleet"])
    @pytest.mark.parametrize("value", ["0.0", "0.99"])
    def test_rates_in_half_open_unit_interval_parse(self, command, value):
        flags = ["--pim-fault-rate", value, "--mapping-fault-rate", value]
        if command == "serve":
            flags += ["--jitter", value]
        args = build_parser().parse_args([command] + flags)
        assert args.pim_fault_rate == args.mapping_fault_rate == float(value)
        if command == "serve":
            assert args.jitter == float(value)

    def test_fleet_flags_parse(self):
        args = build_parser().parse_args([
            "fleet", "--devices", "6", "--standby", "2", "--kills", "40",
            "--shape", "bursty", "--autoscale", "--shed", "drop-oldest",
        ])
        assert args.n_devices == 6 and args.standby_devices == 2
        assert args.kills == 40
        assert args.shape == "bursty" and args.autoscale
        assert args.shed_policy == "drop-oldest"


class TestFleetCommand:
    def test_fleet_writes_report_and_exits_zero(self, capsys, tmp_path):
        out = tmp_path / "fleet.json"
        assert main([
            "fleet", "--devices", "2", "--duration-ms", "300",
            "--qps", "10", "--out", str(out),
        ]) == 0
        import json

        report = json.loads(out.read_text())
        assert report["none_lost"] is True
        assert len(report["devices"]) == 2
        assert "fleet run" in capsys.readouterr().out

    def test_fleet_campaign_exits_zero_and_reports_sites(
        self, capsys, tmp_path
    ):
        out = tmp_path / "campaign.json"
        assert main(["fleet-chaos", "--kills", "8", "--out", str(out)]) == 0
        import json

        report = json.loads(out.read_text())
        assert report["ok"] is True and report["kills_applied"] == 8
        assert "crashes by site" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, words", (
        (["--devices", "1"], "2 devices"),
        (["--devices", "2", "--kill-gap-ms", "5"], "cadence"),
        (["--kills", "3"], "kills must be at least 4"),
    ))
    def test_fleet_campaign_refusals_are_one_line(self, tmp_path, argv, words):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet-chaos", "--out", str(tmp_path / "c.json")] + argv)
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        assert words in message

    @pytest.mark.parametrize("argv, flag", (
        (["--standby", "3", "--autoscale"], "--standby"),
        (["--autoscale"], "--autoscale"),
        (["--pim-fault-rate", "0.1"], "--pim-fault-rate"),
        (["--mapping-fault-rate", "0.1"], "--mapping-fault-rate"),
        (["--metrics-out", "m.json"], "--metrics-out"),
        # given at their plain-run defaults: still refused
        (["--policy", "facil"], "--policy"),
        (["--shape", "diurnal"], "--shape"),
        (["--dataset", "alpaca-like"], "--dataset"),
        (["--duration-ms", "5000"], "--duration-ms"),
        (["--kv-blocks", "64"], "--kv-blocks"),
        (["--block-tokens", "16"], "--block-tokens"),
    ))
    def test_fleet_campaign_refuses_flags_it_would_ignore(
        self, tmp_path, capsys, argv, flag
    ):
        # fleet-chaos's parser holds only FleetChaosSpec's flags and --out
        with pytest.raises(SystemExit) as excinfo:
            main([
                "fleet-chaos", "--kills", "4",
                "--out", str(tmp_path / "c.json"),
            ] + argv)
        assert excinfo.value.code == 2  # argparse usage error
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    def test_fleet_campaign_without_a_failover_fails(self, tmp_path):
        out = tmp_path / "c.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet-chaos", "--kills", "4", "--seed", "0", "--out", str(out)])
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        assert "no request failed over" in message and "checked nothing" in message
        import json

        assert json.loads(out.read_text())["ok"] is False

    def test_fleet_standby_must_leave_a_device_in_rotation(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--devices", "2", "--standby", "2"])
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        assert "--standby" in message and "--devices" in message

    def test_fleet_kills_with_metrics_out(self, capsys, tmp_path):
        metrics_out = tmp_path / "fleet_metrics.json"
        assert main([
            "fleet", "--devices", "2", "--duration-ms", "300",
            "--qps", "10", "--kills", "2", "--kill-gap-ms", "50",
            "--out", str(tmp_path / "fleet.json"),
            "--metrics-out", str(metrics_out),
        ]) == 0
        import json

        names = {
            m["name"]
            for m in json.loads(metrics_out.read_text())["metrics"]
        }
        assert "fleet_device_served_total" in names
        assert "fleet_device_state" in names


class TestDseCommand:
    TINY = [
        "dse", "--seed", "0", "--duration-ms", "500",
        "--axes", "mapping=soc-only,facil",
        "--axes", "kv_blocks=0,64",
    ]

    def test_dse_writes_report_and_prints_frontier(self, capsys, tmp_path):
        out = tmp_path / "dse.json"
        assert main(self.TINY + ["--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "sweep           : 4 points over 2 axes" in text
        assert "pareto frontier" in text
        assert "solo repro" in text
        import json

        report = json.loads(out.read_text())
        assert report["n_points"] == 4
        assert report["pareto"]["frontier"], "empty frontier"
        for entry in report["pareto"]["frontier"]:
            assert "--only" in entry["repro"]
            assert "--point-seed" in entry["repro"]

    def test_dse_only_reproduces_sweep_metrics(self, capsys, tmp_path):
        out = tmp_path / "dse.json"
        main(self.TINY + ["--out", str(out)])
        capsys.readouterr()
        import json

        entry = json.loads(out.read_text())["pareto"]["frontier"][0]
        assert main(self.TINY + [
            "--only", entry["config_hash"],
            "--point-seed", str(entry["seed"]),
        ]) == 0
        text = capsys.readouterr().out
        assert f"config_hash     : {entry['config_hash']}" in text
        metrics_line = next(
            line for line in text.splitlines()
            if line.startswith("metrics         : ")
        )
        solo = json.loads(metrics_line.split(": ", 1)[1])
        assert solo == entry["metrics"]

    def test_dse_only_unknown_hash_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no point with config_hash"):
            main(self.TINY + ["--only", "feedfeedfeed"])

    def test_dse_resume_reuses_completed_points(self, capsys, tmp_path):
        out = tmp_path / "dse.json"
        main(self.TINY + ["--out", str(out)])
        first = out.read_text()
        capsys.readouterr()
        assert main(self.TINY + ["--out", str(out), "--resume"]) == 0
        text = capsys.readouterr().out
        assert "evaluated       : 0 fresh, 4 reused" in text
        assert out.read_text() == first

    def test_dse_workers_flag_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse", "--workers", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse", "--duration-ms", "-5"])

    def test_dse_bad_axis_exits(self):
        with pytest.raises(SystemExit, match="not in domain"):
            main(["dse", "--axes", "mapping=warp-drive"])

    def test_dse_defaults_parse(self):
        args = build_parser().parse_args(["dse"])
        assert args.seed == 0 and args.workers == 1
        assert args.axes is None and args.resume is False
