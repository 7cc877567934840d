"""Tests for the PNG-file and PPM writers, read back by the reference readers."""

import numpy as np
import pytest

from repro.color.srgb import encode_srgb8
from repro.imageio.png_file import write_png
from repro.imageio.ppm import write_ppm
from repro.scenes.library import render_scene

from imageio_reference import read_png, read_ppm


@pytest.fixture
def scene_frame():
    return encode_srgb8(render_scene("office", 24, 32))


class TestPNGFile:
    def test_round_trip_scene(self, tmp_path, scene_frame):
        path = tmp_path / "frame.png"
        write_png(path, scene_frame)
        assert np.array_equal(read_png(path), scene_frame)

    def test_round_trip_random(self, tmp_path, rng):
        frame = rng.integers(0, 256, (17, 13, 3), dtype=np.uint8)
        path = tmp_path / "random.png"
        write_png(path, frame)
        assert np.array_equal(read_png(path), frame)

    def test_signature_written(self, tmp_path, scene_frame):
        path = tmp_path / "sig.png"
        write_png(path, scene_frame)
        assert path.read_bytes().startswith(b"\x89PNG\r\n\x1a\n")

    def test_reported_size_matches_file(self, tmp_path, scene_frame):
        path = tmp_path / "size.png"
        written = write_png(path, scene_frame)
        assert written == path.stat().st_size

    def test_rejects_bad_input(self, tmp_path):
        with pytest.raises(ValueError, match="uint8"):
            write_png(tmp_path / "bad.png", np.zeros((4, 4, 3)))

    def test_rejects_non_png_file(self, tmp_path):
        path = tmp_path / "not.png"
        path.write_bytes(b"definitely not a png")
        with pytest.raises(ValueError, match="not a PNG"):
            read_png(path)

    def test_detects_corruption(self, tmp_path, scene_frame):
        path = tmp_path / "corrupt.png"
        write_png(path, scene_frame)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF  # flip a bit inside IHDR/IDAT territory
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            read_png(path)

    def test_higher_level_not_larger(self, tmp_path, scene_frame):
        fast = write_png(tmp_path / "l1.png", scene_frame, level=1)
        best = write_png(tmp_path / "l9.png", scene_frame, level=9)
        assert best <= fast


class TestPPM:
    def test_round_trip(self, tmp_path, scene_frame):
        path = tmp_path / "frame.ppm"
        write_ppm(path, scene_frame)
        assert np.array_equal(read_ppm(path), scene_frame)

    def test_size_is_header_plus_raw(self, tmp_path, scene_frame):
        path = tmp_path / "frame.ppm"
        written = write_ppm(path, scene_frame)
        assert written == path.stat().st_size
        assert written > scene_frame.size  # header on top of raw bytes

    def test_rejects_bad_input(self, tmp_path):
        with pytest.raises(ValueError, match="uint8"):
            write_ppm(tmp_path / "bad.ppm", np.zeros((4, 4, 3), dtype=np.float64))

    def test_rejects_non_ppm(self, tmp_path):
        path = tmp_path / "not.ppm"
        path.write_bytes(b"P5\n1 1\n255\nx")
        with pytest.raises(ValueError, match="P6"):
            read_ppm(path)
