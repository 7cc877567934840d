"""Tests for the extension experiment runners."""

import pytest

from repro.experiments.common import ExperimentConfig
from repro.experiments.extensions import (
    ADAPTATION_STATES,
    GAZE_ERRORS_DEG,
    run_dark_adaptation,
    run_gaze_latency,
    run_streaming,
    run_variable_bd,
)
from repro.streaming.link import WirelessLink

TINY = ExperimentConfig(height=96, width=96, n_frames=1)


class TestGazeLatency:
    @pytest.fixture(scope="class")
    def result(self):
        return run_gaze_latency(TINY)

    def test_covers_all_scenes_and_errors(self, result):
        assert set(result.exceedance) == set(TINY.scene_names)
        for by_error in result.exceedance.values():
            assert set(by_error) == set(GAZE_ERRORS_DEG)

    def test_visibility_grows_with_error(self, result):
        zero = result.mean_exceedance(0.0)
        worst = result.mean_exceedance(GAZE_ERRORS_DEG[-1])
        assert worst > zero * 1.1

    def test_table_renders(self, result):
        assert "20 deg" in result.table()


class TestDarkAdaptation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_dark_adaptation(TINY)

    def test_dark_scenes_gain_more(self, result):
        assert result.dark_scene_gain() > result.bright_scene_gain()

    def test_gains_positive(self, result):
        assert result.dark_scene_gain() > 0
        assert result.bright_scene_gain() >= 0

    def test_states_covered(self, result):
        assert set(result.bpp_dark_scenes) == set(ADAPTATION_STATES)

    def test_requires_dark_and_bright_scenes(self):
        config = ExperimentConfig(
            height=96, width=96, n_frames=1, scene_names=("office",)
        )
        with pytest.raises(ValueError, match="dark and one bright"):
            run_dark_adaptation(config)


class TestVariableBD:
    @pytest.fixture(scope="class")
    def result(self):
        return run_variable_bd(TINY)

    def test_all_variants_measured(self, result):
        assert set(result.bpp) == {
            "BD fixed", "BD variable", "ours fixed", "ours variable",
        }

    def test_adjustment_helps_both_schemes(self, result):
        assert result.bpp["ours fixed"] < result.bpp["BD fixed"]
        assert result.bpp["ours variable"] < result.bpp["BD variable"]

    def test_finer_groups_cost_more_metadata(self):
        fine = run_variable_bd(TINY, group_size=2)
        coarse = run_variable_bd(TINY, group_size=8)
        assert fine.bpp["BD variable"] > coarse.bpp["BD variable"]


class TestStreaming:
    def test_default_links(self):
        result = run_streaming(TINY)
        assert len(result.fps) == 3
        for by_encoder in result.fps.values():
            assert by_encoder["perceptual"] > by_encoder["raw"]

    def test_custom_links(self):
        links = {"slow": WirelessLink(bandwidth_mbps=30.0)}
        result = run_streaming(TINY, links=links, target_fps=90.0)
        assert set(result.fps) == {"slow"}
        assert result.target_fps == 90.0

    def test_table_renders(self):
        result = run_streaming(TINY, links={"l": WirelessLink(bandwidth_mbps=100.0)})
        assert "perceptual" in result.table()
