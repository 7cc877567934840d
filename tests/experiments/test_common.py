"""Tests for the shared experiment configuration and formatting."""

import numpy as np
import pytest

from repro import PerceptualCodec
from repro.experiments.common import (
    ExperimentConfig,
    encoder_for,
    format_table,
    render_eval_frames,
)


class TestConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.tile_size == 4
        assert len(config.scene_names) == 6

    def test_eccentricity_map_shape(self):
        config = ExperimentConfig(height=32, width=48)
        assert config.eccentricity_map().shape == (32, 48)

    def test_rejects_tiny_frames(self):
        with pytest.raises(ValueError, match=">= 8x8"):
            ExperimentConfig(height=4, width=4)

    def test_rejects_zero_frames(self):
        with pytest.raises(ValueError, match="n_frames"):
            ExperimentConfig(n_frames=0)


class TestEncoderFactory:
    def test_builds_encoder(self):
        encoder = encoder_for(ExperimentConfig())
        assert isinstance(encoder, PerceptualCodec)
        assert encoder.tile_size == 4

    def test_overrides_apply(self):
        encoder = encoder_for(ExperimentConfig(), tile_size=8, foveal_radius_deg=5.0)
        assert encoder.tile_size == 8
        assert encoder.foveal_radius_deg == 5.0


class TestRenderEvalFrames:
    def test_frame_count_and_shape(self):
        config = ExperimentConfig(height=32, width=32, n_frames=3)
        frames = render_eval_frames(config, "office")
        assert len(frames) == 3
        assert frames[0].shape == (32, 32, 3)

    def test_frames_animate(self):
        config = ExperimentConfig(height=32, width=32, n_frames=2)
        frames = render_eval_frames(config, "dumbo")
        assert not np.array_equal(frames[0], frames[1])


class TestFormatTable:
    def test_alignment_and_precision(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["bb", 2.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.23" in text and "1.2345" not in text

    def test_integer_cells_unchanged(self):
        text = format_table(["n"], [[42]])
        assert "42" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text
