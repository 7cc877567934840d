"""Tests for the fixed-vs-adaptive fading-link experiment."""

import pytest

from repro.experiments.common import ExperimentConfig
from repro.experiments.adaptive import run

TINY = ExperimentConfig(height=48, width=48)


@pytest.fixture(scope="module")
def result():
    return run(TINY)


class TestAdaptiveExperiment:
    def test_covers_every_rung_and_both_policies(self, result):
        labels = set(result.reports)
        assert {f"fixed:{name}" for name in result.ladder_names} <= labels
        assert {"buffer", "throughput"} <= labels

    def test_fade_separates_the_fixed_rungs(self, result):
        """The calibrated link leaves the cheapest rung essentially
        stall-free while every other rung stalls materially."""
        stalls = {
            label: report.adaptive.stall_time_s
            for label, report in result.reports.items()
            if label.startswith("fixed:")
        }
        assert min(stalls.values()) < 1e-3  # the floor rung barely stalls
        assert sum(stall > 0.01 for stall in stalls.values()) >= len(stalls) - 2

    def test_throughput_beats_fixed_rungs_on_stall_within_quality_band(self, result):
        """The acceptance criterion: adaptive stall no worse than every
        fixed rung (strictly better than each rung that stalls
        materially), with mean quality within 10% of the best fixed
        rung's."""
        fixed = {
            label: report.adaptive
            for label, report in result.reports.items()
            if label.startswith("fixed:")
        }
        adaptive = result.reports["throughput"].adaptive
        best_quality = max(stats.mean_quality for stats in fixed.values())
        for stats in fixed.values():
            assert adaptive.stall_time_s <= stats.stall_time_s
            if stats.stall_time_s > 0.01:
                assert adaptive.stall_time_s < stats.stall_time_s
        assert adaptive.mean_quality >= 0.9 * best_quality
        assert adaptive.rung_switches > 0

    def test_table_and_verdict_render(self, result):
        table = result.table()
        assert "stall ms" in table and "quality" in table
        assert "adaptive vs fixed" in table
        assert "within 10% of best" in table
