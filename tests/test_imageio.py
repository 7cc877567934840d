"""Tests for the PNG-file writer, read back by the reference reader."""

import struct

import numpy as np
import pytest

from repro.baselines.png_codec import png_encode
from repro.color.srgb import encode_srgb8
from repro.imageio.png_file import write_png
from repro.scenes.library import render_scene

from imageio_reference import read_png


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

    @pytest.mark.parametrize("level", [1, 6, 9])
    @pytest.mark.parametrize("shape", [(17, 23), (64, 64), (1, 1)])
    def test_idat_is_the_png_baseline_payload(self, tmp_path, rng, shape, level):
        """The file's one IDAT chunk carries ``png_encode``'s payload,
        and the reference reader still round-trips it."""
        frame = rng.integers(0, 256, (*shape, 3), dtype=np.uint8)
        path = tmp_path / "idat.png"
        write_png(path, frame, level=level)
        data = path.read_bytes()
        ihdr_end = 8 + 12 + 13
        (length,) = struct.unpack_from(">I", data, ihdr_end)
        assert data[ihdr_end + 4 : ihdr_end + 8] == b"IDAT"
        assert data[ihdr_end + 8 : ihdr_end + 8 + length] == png_encode(frame, level).payload
        assert np.array_equal(read_png(path), frame)
