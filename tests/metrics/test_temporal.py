"""Tests for the temporal flicker metric."""

import numpy as np
import pytest

from repro.metrics.temporal import flicker_report


def _static_pair(value=100, shape=(8, 8, 3)):
    frame = np.full(shape, value, dtype=np.uint8)
    return [frame, frame.copy()]


class TestFlickerReport:
    def test_identity_codec_is_neutral(self, rng):
        frames = [rng.integers(0, 256, (8, 8, 3), dtype=np.uint8) for _ in range(3)]
        report = flicker_report(frames, [f.copy() for f in frames])
        assert report.amplification == pytest.approx(1.0)
        assert report.excess_variation == 0.0

    def test_static_scene_static_output(self):
        report = flicker_report(_static_pair(), _static_pair())
        assert report.input_variation == 0.0
        assert report.output_variation == 0.0
        assert report.amplification == 1.0

    def test_flickering_output_detected(self):
        inputs = _static_pair()
        flickery = [
            np.full((8, 8, 3), 100, dtype=np.uint8),
            np.full((8, 8, 3), 110, dtype=np.uint8),
        ]
        report = flicker_report(inputs, flickery)
        assert report.excess_variation == pytest.approx(10.0)
        assert report.max_excess == pytest.approx(10.0)
        assert report.amplification == float("inf")

    def test_smoothing_output_has_sub_unit_amplification(self, rng):
        base = rng.integers(100, 120, (8, 8, 3))
        inputs = [
            (base + rng.integers(-3, 4, base.shape)).astype(np.uint8) for _ in range(4)
        ]
        constant = np.full(base.shape, 110, dtype=np.uint8)
        report = flicker_report(inputs, [constant] * 4)
        assert report.amplification < 0.1
        assert report.excess_variation == 0.0

    def test_pair_count(self):
        frames = [_static_pair()[0]] * 5
        report = flicker_report(frames, frames)
        assert report.n_pairs == 4

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="lengths differ"):
            flicker_report(_static_pair(), _static_pair()[:1])

    def test_rejects_single_frame(self):
        frame = _static_pair()[:1]
        with pytest.raises(ValueError, match="two frames"):
            flicker_report(frame, frame)

    def test_rejects_shape_mismatch(self):
        a = _static_pair(shape=(8, 8, 3))
        b = _static_pair(shape=(4, 4, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            flicker_report(a, b)


class TestEncoderFlicker:
    def test_adjustment_does_not_amplify_flicker(self):
        """The library-level claim: per-frame adjustment keeps temporal
        variation at or below the input's on animated scenes."""
        from repro import FrameContext, PerceptualCodec
        from repro.metrics.temporal import flicker_report
        from repro.scenes.display import QUEST2_DISPLAY
        from repro.scenes.library import get_scene

        scene = get_scene("office")
        ecc = QUEST2_DISPLAY.eccentricity_map(64, 64)
        encoder = PerceptualCodec()
        inputs, outputs = [], []
        for index in range(3):
            frame = scene.render(64, 64, frame=index, eye="left")
            result = encoder.encode(FrameContext(frame, eccentricity=ecc))
            inputs.append(result.original_srgb)
            outputs.append(result.adjusted_srgb)
        report = flicker_report(inputs, outputs)
        assert report.amplification < 1.3
