"""Tests for the PNG-class lossless codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.png_codec import (
    png_compressed_bits,
    png_decode,
    png_encode,
    png_filter_rows,
    png_unfilter_rows,
)
from repro.color.srgb import encode_srgb8
from repro.scenes.library import render_scene


class TestFiltering:
    def test_round_trip_random(self, rng):
        frame = rng.integers(0, 256, (10, 12, 3), dtype=np.uint8)
        filter_ids, filtered = png_filter_rows(frame)
        assert np.array_equal(
            png_unfilter_rows(filter_ids, filtered, frame.shape), frame
        )

    def test_each_filter_mode_invertible(self, rng):
        """Force every filter id and verify unfiltering inverts it."""
        frame = rng.integers(0, 256, (6, 8, 3), dtype=np.uint8)
        rows = frame.reshape(6, 24).astype(np.int16)
        for mode in range(5):
            # Build the filtered rows by hand for this single mode.
            import repro.baselines.png_codec as png

            filtered = np.empty((6, 24), dtype=np.uint8)
            previous = np.zeros(24, dtype=np.int16)
            for y in range(6):
                row = rows[y]
                left = png._shift_left(row, 3)
                upleft = png._shift_left(previous, 3)
                candidates = (
                    row,
                    row - left,
                    row - previous,
                    row - (left + previous) // 2,
                    row - png._paeth_predictor(left, previous, upleft),
                )
                filtered[y] = (np.asarray(candidates[mode], dtype=np.int16) & 0xFF).astype(np.uint8)
                previous = row
            ids = np.full(6, mode, dtype=np.uint8)
            assert np.array_equal(
                png_unfilter_rows(ids, filtered, frame.shape), frame
            ), f"filter type {mode}"

    def test_constant_rows_choose_cheap_filter(self):
        frame = np.full((4, 8, 3), 100, dtype=np.uint8)
        filter_ids, filtered = png_filter_rows(frame)
        # After the first row (which has no 'up' context), differencing
        # maps constant content to all zeros.
        assert np.abs(filtered[1:].astype(np.int8)).sum() == 0

    def test_rejects_float_frame(self):
        with pytest.raises(ValueError, match="uint8"):
            png_filter_rows(np.zeros((4, 4, 3)))

    def test_unfilter_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="do not match"):
            png_unfilter_rows(np.zeros(2, np.uint8), np.zeros((2, 5), np.uint8), (2, 4, 3))

    def test_unfilter_rejects_unknown_filter_id(self, rng):
        filtered = rng.integers(0, 256, (3, 12), dtype=np.uint8)
        ids = np.array([0, 5, 2], dtype=np.uint8)
        with pytest.raises(ValueError, match="unknown PNG filter id 5"):
            png_unfilter_rows(ids, filtered, (3, 4, 3))


def _reference_filter_rows(frame):
    """Transcription of the original per-row filter loop (pre-PR 5).

    Retained verbatim so the batched :func:`png_filter_rows` is pinned
    to the exact same filter choices and residual bytes.
    """
    import repro.baselines.png_codec as png

    height, width, channels = frame.shape
    rows = frame.reshape(height, width * channels).astype(np.int16)
    filter_ids = np.empty(height, dtype=np.uint8)
    filtered = np.empty_like(rows, dtype=np.uint8)
    previous = np.zeros(width * channels, dtype=np.int16)
    for y in range(height):
        row = rows[y]
        left = png._shift_left(row, channels)
        upleft = png._shift_left(previous, channels)
        candidates = (
            row,
            row - left,
            row - previous,
            row - (left + previous) // 2,
            row - png._paeth_predictor(left, previous, upleft),
        )
        encoded = [np.asarray(c, dtype=np.int16) & 0xFF for c in candidates]
        costs = [int(np.abs(np.where(e > 127, e - 256, e)).sum()) for e in encoded]
        best = int(np.argmin(costs))
        filter_ids[y] = best
        filtered[y] = encoded[best].astype(np.uint8)
        previous = row
    return filter_ids, filtered


class TestBatchedFilterMatchesReference:
    def test_scene_frame(self):
        frame = encode_srgb8(render_scene("office", 48, 48))
        ref_ids, ref_rows = _reference_filter_rows(frame)
        ids, rows = png_filter_rows(frame)
        assert np.array_equal(ids, ref_ids)
        assert np.array_equal(rows, ref_rows)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_random_frames_property(self, height, width, channels, seed):
        rng = np.random.default_rng(seed)
        frame = rng.integers(0, 256, (height, width, channels), dtype=np.uint8)
        ref_ids, ref_rows = _reference_filter_rows(frame)
        ids, rows = png_filter_rows(frame)
        assert np.array_equal(ids, ref_ids)
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(png_unfilter_rows(ids, rows, frame.shape), frame)

    def test_gradient_frames_exercise_up_runs(self):
        """Vertically constant content picks Up for whole runs — the
        vectorized accumulate path must still invert exactly."""
        frame = np.tile(np.arange(48, dtype=np.uint8)[None, :, None] * 5, (24, 1, 3))
        ids, rows = png_filter_rows(frame)
        assert (ids[1:] == 2).all()
        assert np.array_equal(png_unfilter_rows(ids, rows, frame.shape), frame)


class TestCodec:
    def test_round_trip_scene(self):
        frame = encode_srgb8(render_scene("thai", 24, 24))
        assert np.array_equal(png_decode(png_encode(frame)), frame)

    def test_round_trip_extremes(self):
        for value in (0, 255):
            frame = np.full((8, 8, 3), value, dtype=np.uint8)
            assert np.array_equal(png_decode(png_encode(frame)), frame)

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=16),
    )
    def test_round_trip_property(self, height, width):
        rng = np.random.default_rng(height * 31 + width)
        frame = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
        assert np.array_equal(png_decode(png_encode(frame)), frame)

    def test_corrupt_payload_rejected(self):
        frame = np.zeros((4, 4, 3), dtype=np.uint8)
        encoded = png_encode(frame)
        import zlib

        from repro.baselines.png_codec import PNGEncoded

        bad = PNGEncoded(payload=zlib.compress(b"too short"), shape=encoded.shape)
        with pytest.raises(ValueError, match="corrupt"):
            png_decode(bad)

    def test_smooth_compresses_better_than_noise(self, rng):
        gradient = np.broadcast_to(
            (np.arange(32, dtype=np.uint8) * 4)[:, None, None], (32, 32, 3)
        ).copy()
        noise = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
        assert png_compressed_bits(gradient) < png_compressed_bits(noise) / 3

    def test_bits_accounting(self):
        frame = np.zeros((4, 4, 3), dtype=np.uint8)
        encoded = png_encode(frame)
        assert encoded.total_bits == len(encoded.payload) * 8 + 40
        assert png_compressed_bits(frame) == encoded.total_bits

    def test_compression_level_affects_size_monotonically(self, rng):
        frame = encode_srgb8(render_scene("office", 32, 32))
        fast = png_compressed_bits(frame, level=1)
        best = png_compressed_bits(frame, level=9)
        assert best <= fast
