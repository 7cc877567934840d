"""Additional pipeline behaviors: gaze interplay, models, bookkeeping."""

import numpy as np
import pytest

from repro import FrameContext, PerceptualCodec
from repro.perception.adaptation import DarkAdaptedModel
from repro.perception.calibration import ObserverProfile, calibrated_model
from repro.perception.model import ParametricModel
from repro.scenes.display import QUEST2_DISPLAY
from repro.scenes.gaze import saccade_trace
from repro.scenes.library import render_scene


def _encode(codec, frame, eccentricity):
    return codec.encode(FrameContext(frame, eccentricity=eccentricity))


@pytest.fixture(scope="module")
def frame():
    return render_scene("office", 64, 64, eye="left")


class TestGazeDrivenEncoding:
    def test_trace_driven_fixations_produce_valid_encodings(self, frame):
        """End-to-end: gaze trace -> last sample 10 ms before now ->
        eccentricity map -> encoder, the loop a real system runs per
        frame."""
        trace = saccade_trace(0.5, rng=np.random.default_rng(2))
        encoder = PerceptualCodec()
        for now in (0.1, 0.3, 0.45):
            last = [s for s in trace if s.time_s <= now - 0.01][-1]
            fixation = (last.x, last.y)
            ecc = QUEST2_DISPLAY.eccentricity_map(64, 64, fixation=fixation)
            result = _encode(encoder, frame, ecc)
            assert result.max_mahalanobis <= 1.0 + 1e-9
            assert result.breakdown.total_bits > 0

    def test_extreme_corner_fixation(self, frame):
        ecc = QUEST2_DISPLAY.eccentricity_map(64, 64, fixation=(0.0, 0.0))
        result = _encode(PerceptualCodec(), frame, ecc)
        # Whole frame peripheral except the corner: strong compression.
        assert result.bandwidth_reduction_vs_bd > 0.0


class TestModelVariants:
    def test_calibrated_sensitive_user_costs_bits(self, frame):
        base = ParametricModel()
        sensitive = calibrated_model(
            ObserverProfile("artist", sensitivity=0.5), base=base
        )
        normal = _encode(PerceptualCodec(model=base), frame, 25.0)
        careful = _encode(PerceptualCodec(model=sensitive), frame, 25.0)
        assert careful.breakdown.total_bits >= normal.breakdown.total_bits

    def test_dark_adapted_model_helps_dark_frame(self):
        dark_frame = render_scene("monkey", 64, 64)
        base = ParametricModel()
        normal = _encode(PerceptualCodec(model=base), dark_frame, 25.0)
        adapted = _encode(
            PerceptualCodec(model=DarkAdaptedModel(base, adaptation=1.0)), dark_frame, 25.0
        )
        assert adapted.breakdown.total_bits <= normal.breakdown.total_bits

    def test_model_stack_composes(self, frame):
        """Calibration on top of dark adaptation on top of the law."""
        stacked = calibrated_model(
            ObserverProfile("p", sensitivity=0.9),
            base=DarkAdaptedModel(ParametricModel(), adaptation=0.5),
        )
        result = _encode(PerceptualCodec(model=stacked), frame, 25.0)
        assert result.max_mahalanobis <= 1.0 + 1e-9


class TestBookkeeping:
    def test_baseline_breakdown_matches_standalone_bd(self, frame):
        from repro.codecs.registry import get_codec
        from repro.color.srgb import encode_srgb8

        result = _encode(PerceptualCodec(), frame, 25.0)
        plain = get_codec("bd").encode(FrameContext(srgb8=encode_srgb8(frame)))
        assert result.baseline_breakdown.total_bits == plain.total_bits

    def test_original_srgb_is_quantized_input(self, frame):
        from repro.color.srgb import encode_srgb8

        result = _encode(PerceptualCodec(), frame, 25.0)
        assert np.array_equal(result.original_srgb, encode_srgb8(frame))

    def test_grid_metadata(self, frame):
        result = _encode(PerceptualCodec(tile_size=8), frame, 25.0)
        assert result.grid.tile_size == 8
        assert result.grid.height == 64
        assert result.grid.n_tiles == 64
