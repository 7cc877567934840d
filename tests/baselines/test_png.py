"""Tests for the PNG-class lossless codec.

Two oracles hold :func:`png_filter_rows` to its filter choices and
residual bytes: ``_reference_filter_rows``, a transcription of the
original per-row loop, and ``_batched_filter_rows``, the int16
five-plane stack the package ran before it filtered in one uint8 pass.
"""

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
            filtered = np.empty((6, 24), dtype=np.uint8)
            previous = np.zeros(24, dtype=np.int16)
            for y in range(6):
                row = rows[y]
                left = _shift_left(row, 3)
                upleft = _shift_left(previous, 3)
                candidates = (
                    row,
                    row - left,
                    row - previous,
                    row - (left + previous) // 2,
                    row - _paeth_predictor(left, previous, upleft),
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


def _paeth_predictor(left: np.ndarray, up: np.ndarray, upleft: np.ndarray) -> np.ndarray:
    """The Paeth predictor of the PNG spec, vectorized (int16 inputs)."""
    p = left + up - upleft
    pa = np.abs(p - left)
    pb = np.abs(p - up)
    pc = np.abs(p - upleft)
    return np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))


def _shift_left(row: np.ndarray, channels: int) -> np.ndarray:
    """Row shifted right by one pixel (PNG's 'left' neighbor), zero fill."""
    out = np.zeros_like(row)
    out[channels:] = row[:-channels]
    return out


def _reference_filter_rows(frame):
    """Transcription of the original per-row filter loop.

    Retained verbatim so the batched :func:`png_filter_rows` is pinned
    to the exact same filter choices and residual bytes.
    """
    height, width, channels = frame.shape
    rows = frame.reshape(height, width * channels).astype(np.int16)
    filter_ids = np.empty(height, dtype=np.uint8)
    filtered = np.empty_like(rows, dtype=np.uint8)
    previous = np.zeros(width * channels, dtype=np.int16)
    for y in range(height):
        row = rows[y]
        left = _shift_left(row, channels)
        upleft = _shift_left(previous, channels)
        candidates = (
            row,
            row - left,
            row - previous,
            row - (left + previous) // 2,
            row - _paeth_predictor(left, previous, upleft),
        )
        encoded = [np.asarray(c, dtype=np.int16) & 0xFF for c in candidates]
        costs = [int(np.abs(np.where(e > 127, e - 256, e)).sum()) for e in encoded]
        best = int(np.argmin(costs))
        filter_ids[y] = best
        filtered[y] = encoded[best].astype(np.uint8)
        previous = row
    return filter_ids, filtered


def _batched_filter_rows(frame):
    """The int16 five-plane filter choice :func:`png_filter_rows` replaced.

    Stacks the five candidate encodings of every row, masks them to
    bytes, costs each row and takes the first minimum.
    """
    height, width, channels = frame.shape
    rows = frame.reshape(height, width * channels).astype(np.int16)
    previous = np.zeros_like(rows)
    previous[1:] = rows[:-1]
    left = np.zeros_like(rows)
    left[:, channels:] = rows[:, :-channels]
    upleft = np.zeros_like(rows)
    upleft[:, channels:] = previous[:, :-channels]

    candidates = np.stack(
        (
            rows,
            rows - left,
            rows - previous,
            rows - (left + previous) // 2,
            rows - _paeth_predictor(left, previous, upleft),
        )
    )  # (5, height, width * channels)
    encoded = candidates & 0xFF
    # For a residual byte e in [0, 256), |signed(e)| == min(e, 256 - e).
    costs = np.minimum(encoded, 256 - encoded).sum(axis=2)  # (5, height)
    filter_ids = np.argmin(costs, axis=0).astype(np.uint8)
    filtered = np.take_along_axis(
        encoded, filter_ids[None, :, None].astype(np.intp), axis=0
    )[0].astype(np.uint8)
    return filter_ids, filtered


def _assert_filters_match_oracles(frame):
    ids, rows = png_filter_rows(frame)
    for oracle in (_reference_filter_rows, _batched_filter_rows):
        ref_ids, ref_rows = oracle(frame)
        assert ids.dtype == ref_ids.dtype and rows.dtype == ref_rows.dtype
        assert np.array_equal(ids, ref_ids), oracle.__name__
        assert np.array_equal(rows, ref_rows), oracle.__name__
    assert np.array_equal(png_unfilter_rows(ids, rows, frame.shape), frame)


class TestOnePassFilterMatchesOracles:
    """The one-pass uint8 filter choice equals both oracles: ids and
    bytes, ties included (equal costs keep the first filter)."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(("random", "low-bits", "constant", "gradient")),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_synthetic_frames(self, height, width, channels, kind, seed):
        rng = np.random.default_rng(seed)
        shape = (height, width, channels)
        if kind == "random":
            frame = rng.integers(0, 256, shape, dtype=np.uint8)
        elif kind == "low-bits":
            frame = rng.integers(0, 4, shape, dtype=np.uint8)
        elif kind == "constant":
            frame = np.full(shape, rng.integers(0, 256), dtype=np.uint8)
        else:
            step = int(rng.integers(1, 40))
            frame = (np.arange(height * width * channels) * step % 256).astype(np.uint8)
            frame = frame.reshape(shape)
        _assert_filters_match_oracles(frame)

    def test_constant_frame_ties_keep_the_first_filter(self):
        """Every row of a zero frame costs 0 under all five filters."""
        frame = np.zeros((5, 6, 3), dtype=np.uint8)
        ids, _ = png_filter_rows(frame)
        assert (ids == 0).all()
        _assert_filters_match_oracles(frame)

    @pytest.mark.parametrize("channels", [1, 2, 3, 4])
    def test_rendered_frames(self, channels):
        codes = encode_srgb8(render_scene("monkey", 40, 56, frame=3))
        frame = np.concatenate([codes, codes[..., :1]], axis=2)[..., :channels]
        _assert_filters_match_oracles(np.ascontiguousarray(frame))

    def test_rendered_frame_at_full_size(self):
        _assert_filters_match_oracles(encode_srgb8(render_scene("skyline", 192, 192, frame=1)))


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
