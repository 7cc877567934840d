"""Tests for scene drawing primitives."""

import numpy as np
import pytest

from repro.scenes.primitives import (
    draw_box,
    draw_disk,
    mix_noise,
    modulate,
    vertical_gradient,
)


class TestSolidAndGradient:
    def test_gradient_endpoints(self):
        frame = vertical_gradient((10, 4), [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert np.allclose(frame[0], 0.0)
        assert np.allclose(frame[-1], 1.0)

    def test_gradient_monotone(self):
        frame = vertical_gradient((10, 4), [0.0, 0.2, 0.6], [1.0, 0.8, 0.4])
        assert np.all(np.diff(frame[:, 0, 0]) > 0)
        assert np.all(np.diff(frame[:, 0, 2]) < 0)

    def test_gradient_writable(self):
        frame = vertical_gradient((4, 4), [0, 0, 0], [1, 1, 1])
        frame[0, 0] = [0.5, 0.5, 0.5]  # must not raise (no broadcast view)


class TestDrawBox:
    def test_fills_region(self):
        frame = np.full((8, 8, 3), [0.0, 0.0, 0.0], dtype=float)
        draw_box(frame, 2, 4, 3, 6, [1.0, 0.5, 0.25])
        assert np.allclose(frame[2:4, 3:6], [1.0, 0.5, 0.25])
        assert np.allclose(frame[0, 0], 0.0)

    def test_clips_out_of_bounds(self):
        frame = np.full((4, 4, 3), [0.0, 0.0, 0.0], dtype=float)
        draw_box(frame, -5, 10, -5, 10, [1.0, 1.0, 1.0])
        assert np.allclose(frame, 1.0)

    def test_opacity_blends(self):
        frame = np.full((4, 4, 3), [0.0, 0.0, 0.0], dtype=float)
        draw_box(frame, 0, 4, 0, 4, [1.0, 1.0, 1.0], opacity=0.25)
        assert np.allclose(frame, 0.25)

    def test_empty_region_noop(self):
        frame = np.full((4, 4, 3), [0.3, 0.3, 0.3], dtype=float)
        draw_box(frame, 2, 2, 0, 4, [1.0, 0.0, 0.0])
        assert np.allclose(frame, 0.3)

    def test_rejects_bad_opacity(self):
        frame = np.full((4, 4, 3), [0, 0, 0], dtype=float)
        with pytest.raises(ValueError, match="opacity"):
            draw_box(frame, 0, 2, 0, 2, [1, 1, 1], opacity=1.5)


class TestDrawDisk:
    def test_center_painted(self):
        frame = np.full((9, 9, 3), [0.0, 0.0, 0.0], dtype=float)
        draw_disk(frame, 4, 4, 3, [1.0, 0.0, 0.0])
        assert np.allclose(frame[4, 4], [1.0, 0.0, 0.0])

    def test_corners_untouched(self):
        frame = np.full((9, 9, 3), [0.0, 0.0, 0.0], dtype=float)
        draw_disk(frame, 4, 4, 3, [1.0, 0.0, 0.0])
        assert np.allclose(frame[0, 0], 0.0)
        assert np.allclose(frame[8, 8], 0.0)

    def test_clips_at_border(self):
        frame = np.full((6, 6, 3), [0.0, 0.0, 0.0], dtype=float)
        draw_disk(frame, 0, 0, 3, [0.0, 1.0, 0.0])
        assert np.allclose(frame[0, 0], [0.0, 1.0, 0.0])

    def test_zero_radius_noop(self):
        frame = np.full((4, 4, 3), [0.5, 0.5, 0.5], dtype=float)
        draw_disk(frame, 2, 2, 0, [1.0, 0.0, 0.0])
        assert np.allclose(frame, 0.5)

    def test_rejects_bad_opacity(self):
        frame = np.full((4, 4, 3), [0, 0, 0], dtype=float)
        with pytest.raises(ValueError, match="opacity"):
            draw_disk(frame, 2, 2, 1, [1, 1, 1], opacity=-0.1)


class TestModulate:
    def test_mean_preserving_at_mid_field(self):
        frame = np.full((4, 4, 3), [0.4, 0.4, 0.4], dtype=float)
        field = np.full((4, 4), 0.5)
        assert np.allclose(modulate(frame, field, 0.5), 0.4)

    def test_amplitude_scales_contrast(self):
        frame = np.full((2, 2, 3), [0.5, 0.5, 0.5], dtype=float)
        field = np.array([[0.0, 1.0], [0.0, 1.0]])
        out = modulate(frame, field, 0.4)
        assert out[0, 1, 0] > out[0, 0, 0]
        assert out[0, 1, 0] - out[0, 0, 0] == pytest.approx(0.5 * 0.4)

    def test_clipped_to_unit(self):
        frame = np.full((2, 2, 3), [0.9, 0.9, 0.9], dtype=float)
        field = np.ones((2, 2))
        assert modulate(frame, field, 2.0).max() <= 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            modulate(np.full((4, 4, 3), [0, 0, 0], dtype=float), np.zeros((2, 2)), 0.1)


class TestMixNoise:
    def test_zero_amount_is_identity(self):
        frame = np.full((4, 4, 3), [0.3, 0.2, 0.1], dtype=float)
        field = np.random.default_rng(0).random((4, 4))
        assert np.allclose(mix_noise(frame, field, [1, 1, 1], 0.0), frame)

    def test_full_mix_replaces(self):
        frame = np.full((2, 2, 3), [0.0, 0.0, 0.0], dtype=float)
        field = np.ones((2, 2))
        out = mix_noise(frame, field, [1.0, 0.5, 0.0], 1.0)
        assert np.allclose(out, [1.0, 0.5, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            mix_noise(np.full((4, 4, 3), [0, 0, 0], dtype=float), np.zeros((3, 3)), [1, 1, 1], 0.5)
