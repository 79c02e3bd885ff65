"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_quickstart_defaults(self):
        args = build_parser().parse_args(["quickstart"])
        assert args.pop == "pop-a"
        assert args.minutes == 10.0

    def test_experiment_args(self):
        args = build_parser().parse_args(
            ["experiment", "fig4", "--hours", "1.0"]
        )
        assert args.name == "fig4" and args.hours == 1.0

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.pop == "chaos-mini"
        assert args.minutes == 30.0
        assert args.seed == 7
        assert args.plan is None and args.report is None


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig4" in out and "table2" in out and "a1" in out
        assert out == sorted(out)

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_registry_complete(self):
        # One entry per reconstructed table/figure plus four ablations.
        assert len(EXPERIMENTS) == 15

    def test_run_cheap_experiment(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "pop-a" in out

    def test_quickstart_tiny(self, capsys):
        assert main(["quickstart", "--minutes", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "offered=" in out


class TestTelemetryCommands:
    def test_metrics_prometheus(self, capsys):
        assert main(["metrics", "--minutes", "1"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE pipeline_ticks_total counter" in out
        assert "pipeline_ticks_total 2.0" in out
        assert "tick_wall_seconds_count 2" in out

    def test_metrics_json(self, capsys):
        import json

        assert main(
            ["metrics", "--minutes", "1", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["pipeline_ticks_total"][""] == 2.0

    def test_trace(self, capsys):
        assert main(["trace", "--minutes", "1"]) == 0
        out = capsys.readouterr().out
        assert "dataplane.tick" in out
        assert "controller.cycle" in out
        assert "most recent" in out
        assert "dropped by the ring" in out

    def test_explain_lists_detoured_prefixes(self, capsys):
        assert main(["explain", "--minutes", "3", "--list"]) == 0
        out = capsys.readouterr().out
        assert "currently detoured" in out

    def test_explain_reconstructs_history(self, capsys):
        # Deterministic: seed 7 at peak detours this prefix in the
        # first controller cycle (also listed by --list above).
        assert main(
            ["explain", "11.1.209.0/24", "--minutes", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "override ACTIVE" in out
        assert "announce" in out
        assert "->" in out
        assert "BGP preferred" in out

    def test_explain_unknown_prefix_fails(self, capsys):
        assert main(
            ["explain", "192.0.2.0/24", "--minutes", "1"]
        ) == 1
        assert "no override history" in capsys.readouterr().out

    def test_jsonl_log_capture(self, tmp_path, capsys):
        import json

        path = tmp_path / "run.jsonl"
        assert main(
            [
                "-v",
                "--log-jsonl",
                str(path),
                "quickstart",
                "--minutes",
                "1",
            ]
        ) == 0
        capsys.readouterr()
        events = [
            json.loads(line)["event"]
            for line in path.read_text().splitlines()
        ]
        assert "cli.quickstart" in events
        assert "controller.cycle" in events

    def test_unwritable_jsonl_path_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "missing-dir" / "x.jsonl"
        assert main(
            ["--log-jsonl", str(path), "quickstart", "--minutes", "1"]
        ) == 2
        assert "cannot open log file" in capsys.readouterr().err


class TestChaosCommand:
    def test_random_plan_runs_clean(self, capsys):
        assert main(["chaos", "--minutes", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "chaos run (seed 3)" in out
        assert "CLEAN" in out
        assert "fault timeline:" in out
        assert "degradation:" in out

    def test_saved_plan_report_is_reproducible(self, tmp_path, capsys):
        from repro.faults import FaultPlan

        plan_path = tmp_path / "plan.json"
        FaultPlan(seed=4).bmp_flap(60.0, 90.0).sflow_loss(
            30.0, 120.0, 0.5
        ).save(plan_path)
        reports = []
        for name in ("one.json", "two.json"):
            report_path = tmp_path / name
            assert main(
                [
                    "chaos",
                    "--minutes",
                    "5",
                    "--seed",
                    "4",
                    "--plan",
                    str(plan_path),
                    "--report",
                    str(report_path),
                ]
            ) == 0
            assert "report written to" in capsys.readouterr().out
            reports.append(report_path.read_text())
        # The contract the CI gauntlet relies on: same plan, same seed,
        # byte-identical report.
        assert reports[0] == reports[1]


class TestHealthCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["health"])
        assert args.pop == "chaos-mini"
        assert args.minutes == 30.0
        assert args.seed == 7
        assert not args.json and args.slo is None and args.plan is None

    def test_clean_run_is_healthy(self, capsys):
        assert main(["health", "--minutes", "10"]) == 0
        out = capsys.readouterr().out
        assert "healthy" in out

    def test_json_round_trips(self, capsys):
        from repro.obs.health import HealthReport

        assert main(["health", "--minutes", "10", "--json"]) == 0
        report = HealthReport.from_json(capsys.readouterr().out)
        assert report.cycles == 20
        assert report.ok

    def test_stale_feed_plan_exits_nonzero(self, tmp_path, capsys):
        from repro.faults import FaultPlan

        # The feed goes stale five minutes in and never recovers, so
        # the freshness alert is still firing at the final cycle.
        plan = FaultPlan(seed=1).stale_clock(
            at=300.0, duration=300.0, skew_seconds=600.0
        )
        path = tmp_path / "stale.json"
        plan.save(path)
        assert (
            main(["health", "--minutes", "10", "--plan", str(path)])
            == 1
        )
        out = capsys.readouterr().out
        assert "FIRING" in out
        assert "input_freshness" in out

    def test_custom_slo_spec(self, tmp_path, capsys):
        from repro.obs.health import SloSpec

        path = tmp_path / "slo.json"
        SloSpec.default().save(path)
        assert (
            main(["health", "--minutes", "5", "--slo", str(path)]) == 0
        )
        assert "healthy" in capsys.readouterr().out


class TestTopCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.pops == 4
        assert args.minutes == 30.0
        assert args.every == 1
        assert not args.plain

    @pytest.mark.parametrize("flag", ["--every", "--pops"])
    def test_counts_below_one_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["top", flag, "0"])
        assert excinfo.value.code == 2
        assert "must be at least 1, got 0" in capsys.readouterr().err

    def test_plain_frames(self, capsys):
        assert main(
            [
                "top",
                "--pops",
                "2",
                "--minutes",
                "5",
                "--plain",
                "--every",
                "5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "repro top — fleet of 2 PoPs" in out
        assert "fleet: healthy" in out
        assert "pop-00" in out and "pop-01" in out
