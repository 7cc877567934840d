"""Tests for the command-line interface."""

import pytest

import repro.cli as cli
from repro.cli import EXPERIMENTS, main


class TestList:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig10", "sec61", "ext-rd"):
            assert name in out

    def test_list_includes_codec_registry(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        for name in ("codecs", "perceptual", "variable-bd", "streaming"):
            assert name in out

    def test_registry_covers_all_paper_figures(self):
        for figure in ("fig02", "fig10", "fig11", "fig12", "fig13", "fig14",
                       "fig15", "sec61", "sec63"):
            assert figure in EXPERIMENTS


class TestRun:
    def test_runs_single_experiment(self, capsys):
        code = main(["fig12", "--height", "96", "--width", "96", "--frames", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "c2" in out and "mean c2" in out

    def test_runs_hardware_without_workload(self, capsys):
        assert main(["sec61"]) == 0
        assert "latency" in capsys.readouterr().out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["definitely-not-real"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_config_flags_forwarded(self, capsys):
        code = main(
            ["fig02", "--height", "96", "--width", "96", "--frames", "1", "--seed", "3"]
        )
        assert code == 0


class TestCodecFilter:
    def test_fig10_with_codec_filter(self, capsys):
        code = main(
            ["fig10", "--codecs", "bd,png", "--height", "96", "--width", "96",
             "--frames", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BD red%" in out and "PNG red%" in out and "Ours" in out
        assert "SCC red%" not in out

    def test_codec_aliases_accepted(self, capsys):
        code = main(
            ["fig10", "--codecs", "NoCom,BD", "--height", "96", "--width", "96",
             "--frames", "1"]
        )
        assert code == 0

    def test_unknown_codec_fails_cleanly(self, capsys):
        assert main(["fig10", "--codecs", "h265"]) == 2
        assert "bad --codecs" in capsys.readouterr().err

    def test_empty_codec_list_fails_cleanly(self, capsys):
        assert main(["fig10", "--codecs", " , "]) == 2

    def test_codecs_rejected_for_non_sweep_experiment(self, capsys):
        """--codecs must not be silently ignored."""
        assert main(["fig11", "--codecs", "png"]) == 2
        assert "would be ignored" in capsys.readouterr().err


class TestFleet:
    def test_fleet_runs_and_reports(self, capsys):
        code = main(
            ["fleet", "--clients", "2", "--codecs", "bd,raw",
             "--height", "48", "--width", "48", "--frames", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet fps" in out and "utilization" in out

    def test_fleet_flags_forwarded(self, capsys):
        code = main(
            ["fleet", "--clients", "2", "--jobs", "2", "--scheduler", "priority",
             "--bandwidth", "120", "--codecs", "bd",
             "--height", "48", "--width", "48", "--frames", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "priority" in out and "120 Mbps" in out

    def test_fleet_flags_rejected_elsewhere(self, capsys):
        assert main(["fig10", "--clients", "3"]) == 2
        assert "only affect the fleet" in capsys.readouterr().err

    def test_fleet_rejects_non_streaming_codecs(self, capsys):
        assert main(["fleet", "--codecs", "png"]) == 2
        assert "not a streaming encoder" in capsys.readouterr().err

    def test_fleet_rejects_bad_values(self, capsys):
        assert main(["fleet", "--clients", "0"]) == 2
        assert main(["fleet", "--jobs", "0"]) == 2
        assert main(["fleet", "--bandwidth", "0"]) == 2

    def test_fleet_adapts_over_a_trace(self, capsys):
        code = main(
            ["fleet", "--clients", "2", "--trace", "step:400:100:5",
             "--controller", "throughput", "--codecs", "bd,raw",
             "--height", "48", "--width", "48", "--frames", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "controller throughput" in out
        assert "stall ms" in out and "quality" in out

    def test_fleet_controller_without_trace(self, capsys):
        code = main(
            ["fleet", "--clients", "2", "--controller", "fixed",
             "--codecs", "raw", "--height", "48", "--width", "48",
             "--frames", "1"]
        )
        assert code == 0
        assert "controller fixed" in capsys.readouterr().out

    def test_pricing_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--pricing", "round"])
        assert exc.value.code == 2
        assert "--pricing" in capsys.readouterr().err

    def test_shards_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--clients", "10", "--cohorts", "--shards", "2"])
        assert exc.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_tracers_require_cohorts(self, capsys):
        assert main(["fleet", "--tracers", "2"]) == 2
        assert "--tracers requires --cohorts" in capsys.readouterr().err

    def test_fleet_rejects_bad_trace_specs(self, capsys):
        assert main(["fleet", "--trace", "sine:1:2:3"]) == 2
        assert "bad --trace" in capsys.readouterr().err
        assert main(["fleet", "--trace", "step:400:100"]) == 2

    def test_trace_and_bandwidth_are_exclusive(self, capsys):
        code = main(
            ["fleet", "--trace", "step:400:100:5", "--bandwidth", "100"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_trace_flags_rejected_elsewhere(self, capsys):
        assert main(["fig10", "--trace", "const:100"]) == 2
        assert "only affect the fleet" in capsys.readouterr().err
        assert main(["adaptive", "--controller", "fixed"]) == 2


class TestAllIsolation:
    """`all` runs every experiment, isolating per-experiment failures."""

    @pytest.fixture()
    def fake_experiments(self, monkeypatch):
        def ok(_config):
            class _Result:
                def table(self):
                    return "ok-table"
            return _Result()

        def boom(_config):
            raise RuntimeError("deliberate failure")

        monkeypatch.setattr(
            cli, "EXPERIMENTS",
            {"good": (ok, "works"), "bad": (boom, "fails"), "good2": (ok, "works")},
        )

    def test_all_continues_past_failures(self, fake_experiments, capsys):
        assert main(["all"]) == 1
        captured = capsys.readouterr()
        # Both healthy experiments still ran.
        assert captured.out.count("ok-table") == 2
        assert "deliberate failure" in captured.err
        assert "summary: 2/3 experiments passed" in captured.out
        assert "FAIL bad" in captured.out

    def test_all_green_returns_zero(self, fake_experiments, monkeypatch, capsys):
        healthy = {k: v for k, v in cli.EXPERIMENTS.items() if k != "bad"}
        monkeypatch.setattr(cli, "EXPERIMENTS", healthy)
        assert main(["all"]) == 0
        assert "summary: 2/2 experiments passed" in capsys.readouterr().out

    def test_single_experiment_failure_propagates(self, fake_experiments):
        """Single runs keep the full traceback instead of isolating."""
        with pytest.raises(RuntimeError, match="deliberate failure"):
            main(["bad"])
