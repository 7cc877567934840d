"""Tests for the six procedural evaluation scenes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.color.srgb import encode_srgb8
from repro.color.utils import relative_luminance
from repro.scenes.library import SCENE_NAMES, _all_scenes, get_scene, render_scene


class TestRegistry:
    def test_six_scenes_in_paper_order(self):
        assert SCENE_NAMES == ("office", "fortnite", "skyline", "dumbo", "thai", "monkey")

    def test_all_scenes_order(self):
        assert [s.name for s in _all_scenes()] == list(SCENE_NAMES)

    def test_unknown_scene_rejected(self):
        with pytest.raises(ValueError, match="unknown scene"):
            get_scene("minecraft")


class TestRendering:
    @pytest.mark.parametrize("name", SCENE_NAMES)
    def test_renders_valid_frames(self, name):
        frame = render_scene(name, 48, 64)
        assert frame.shape == (48, 64, 3)
        assert frame.min() >= 0.0
        assert frame.max() <= 1.0

    def test_deterministic(self):
        a = render_scene("thai", 32, 32, frame=2)
        b = render_scene("thai", 32, 32, frame=2)
        assert np.array_equal(a, b)

    def test_animation_changes_content(self):
        a = render_scene("dumbo", 48, 48, frame=0)
        b = render_scene("dumbo", 48, 48, frame=5)
        assert not np.array_equal(a, b)

    def test_rejects_tiny_frames(self):
        with pytest.raises(ValueError, match="at least 8x8"):
            render_scene("office", 4, 4)

    def test_rejects_negative_frame(self):
        with pytest.raises(ValueError, match="frame index"):
            render_scene("office", 16, 16, frame=-1)

    def test_rejects_bad_eye(self):
        with pytest.raises(ValueError, match="eye"):
            render_scene("office", 16, 16, eye="middle")


class TestNarrowSkyline:
    """Skyline's building loop advances by ``int(width * U(0.04, 0.10)) +
    int(width * 0.01)``, which is 0 for every draw at widths up to 10."""

    #: SHA-256 of ``encode_srgb8(render_scene("skyline", 32, width, 3))``,
    #: recorded before narrow frames skipped the building loop.  The
    #: sRGB codes are pinned rather than the linear floats, whose last
    #: bits may follow the host's SIMD ``sin``.
    PINNED = {
        11: "6805b23efa42c6733608378a9ef332632ddc3eb53e51aa26a20ecb4aafe55857",
        16: "d39a30095a5a0937ab01d322dd56123fd1e7c0272bc0786a674e14fe1eb5938e",
        24: "a910ceef00a66303d2183c480acced42417c751c9b054838989b4cc72816850f",
        96: "82f9481a1ac203accfc6ba0ebf11f1ef5d200e5f273370c6f5b02fa9cdc9f3a4",
    }

    @pytest.mark.parametrize("width", sorted(PINNED))
    def test_wider_frames_render_as_before(self, width):
        codes = encode_srgb8(render_scene("skyline", 32, width, frame=3))
        assert hashlib.sha256(codes.tobytes()).hexdigest() == self.PINNED[width]

    def test_frames_up_to_10_wide_render(self):
        """Run in a subprocess: before the guard these widths never returned."""
        src = str(Path(repro.__file__).resolve().parents[1])
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        probe = (
            "from repro.scenes.library import render_scene\n"
            "for width in (8, 9, 10):\n"
            "    assert render_scene('skyline', 32, width).shape == (32, width, 3)\n"
        )
        subprocess.run([sys.executable, "-c", probe], check=True, env=env, timeout=60)


class TestLuminanceProfile:
    """The paper's scene characterization: fortnite bright and green,
    dumbo/monkey dark — the properties its user-study analysis leans on."""

    @pytest.fixture(scope="class")
    def mean_luminance(self):
        return {
            name: float(relative_luminance(render_scene(name, 96, 96)).mean())
            for name in SCENE_NAMES
        }

    def test_fortnite_is_brightest(self, mean_luminance):
        assert mean_luminance["fortnite"] == max(mean_luminance.values())

    def test_dark_scenes_are_dark(self, mean_luminance):
        for dark in ("dumbo", "monkey"):
            assert mean_luminance[dark] < 0.12

    def test_bright_scenes_are_bright(self, mean_luminance):
        for bright in ("fortnite", "skyline"):
            assert mean_luminance[bright] > 0.3

    def test_fortnite_is_green_dominant(self):
        frame = render_scene("fortnite", 96, 96)
        terrain = frame[60:, :, :]
        assert terrain.mean(axis=(0, 1))[1] == terrain.mean(axis=(0, 1)).max()


class TestStereo:
    def test_stereo_pair_shapes(self):
        left, right = get_scene("office").render_stereo(32, 48)
        assert left.shape == right.shape == (32, 48, 3)

    def test_eyes_differ_by_parallax(self):
        left, right = get_scene("skyline").render_stereo(48, 48)
        assert not np.array_equal(left, right)

    def test_eyes_strongly_correlated(self):
        left, right = get_scene("skyline").render_stereo(48, 48)
        correlation = np.corrcoef(left.ravel(), right.ravel())[0, 1]
        assert correlation > 0.9

    def test_disparity_shifts_content(self):
        scene = get_scene("office")
        left = scene.render(48, 96, eye="left")
        right = scene.render(48, 96, eye="right")
        disparity = max(1, int(96 * 0.01))
        # Right eye's view is the left eye's shifted by 2*disparity
        # columns (identical composition, different grain).
        shifted = left[:, 2 * disparity:]
        overlap = right[:, : shifted.shape[1]]
        assert np.abs(shifted - overlap).mean() < 0.01


class TestGrain:
    def test_grain_has_configured_amplitude(self):
        scene = get_scene("office")
        assert scene.grain_codes > 0
        # Same frame twice is deterministic even with grain.
        a = scene.render(32, 32, frame=0)
        b = scene.render(32, 32, frame=0)
        assert np.array_equal(a, b)

    def test_grain_differs_between_eyes(self):
        scene = get_scene("office")
        left = scene.render(32, 64, eye="left")
        right = scene.render(32, 64, eye="right")
        disparity = max(1, int(64 * 0.01))
        shifted = left[:, 2 * disparity:]
        overlap = right[:, : shifted.shape[1]]
        # Same composition but independent grain: small nonzero diff.
        diff = np.abs(shifted - overlap)
        assert 0 < diff.mean() < 0.02
