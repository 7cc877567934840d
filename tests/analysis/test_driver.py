"""Driver behavior: suppression, output modes, parallelism, and exit
codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.driver import check_source, run
from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

BAD = "total = start_s + jitter_ms\n"


class TestNoqa:
    def test_matching_code_suppresses(self):
        assert check_source("total = start_s + jitter_ms  # noqa: RPR101\n") == []

    def test_bare_noqa_suppresses_everything(self):
        assert check_source("total = start_s + jitter_ms  # noqa\n") == []

    def test_other_code_does_not_suppress(self):
        findings = check_source("total = start_s + jitter_ms  # noqa: RPR999\n")
        assert [f.rule for f in findings] == ["RPR101"]

    def test_multiple_codes(self):
        source = "f(timeout_s=jitter_ms) + start_s  # noqa: RPR101, RPR102\n"
        assert check_source(source) == []


class TestBaseline:
    """Every finding fails; no flag or file accepts one, and
    ``# noqa: RPR###`` is the one way to suppress one."""

    def test_unbaselined_findings_fail(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "dirty.py").write_text(BAD, encoding="utf-8")
        report = run([pkg], root=tmp_path)
        assert report.exit_code == 1
        assert [f.rule for f in report.findings] == ["RPR101"]

    @pytest.mark.parametrize("flag", ["--update-baseline", "--baseline=analysis-baseline.json"])
    def test_baseline_flags_are_usage_errors(self, tmp_path, flag):
        (tmp_path / "ok.py").write_text("x = 1\n")
        with pytest.raises(SystemExit) as exit_info:
            main([str(tmp_path), flag])
        assert exit_info.value.code == 2


class TestRun:
    def test_parallel_matches_serial_over_fixture_corpus(self):
        serial = run([FIXTURES], jobs=1)
        parallel = run([FIXTURES], jobs=4)
        assert serial.findings == parallel.findings
        assert serial.findings  # the bad fixtures guarantee a nonempty set

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n", encoding="utf-8")
        report = run([tmp_path], root=tmp_path)
        assert [f.rule for f in report.findings] == ["RPR000"]

    def test_rule_selection(self, tmp_path):
        (tmp_path / "two.py").write_text(
            "total = start_s + jitter_ms\nf(timeout_s=delay_ms)\n", encoding="utf-8"
        )
        report = run([tmp_path], root=tmp_path, rules=["RPR102"])
        assert [f.rule for f in report.findings] == ["RPR102"]


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("elapsed_s = stop_s - start_s\n")
        assert main([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_findings_exit_one_with_clickable_locations(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text(BAD)
        assert main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "dirty.py:1:8: RPR101" in out

    def test_json_output(self, tmp_path, capsys):
        (tmp_path / "dirty.py").write_text(BAD)
        assert main([str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["version", "files", "findings", "counts"]
        assert payload["version"] == 1
        assert payload["counts"] == {"RPR101": 1}
        finding = payload["findings"][0]
        assert finding["rule"] == "RPR101"
        assert finding["line"] == 1

    def test_missing_path_is_usage_error(self, tmp_path):
        assert main([str(tmp_path / "nope")]) == 2

    def test_unknown_rule_is_usage_error(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path), "--select", "RPR999"]) == 2

    def test_list_rules_covers_all_families(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for family_member in ("RPR101", "RPR201", "RPR301", "RPR401"):
            assert family_member in out
