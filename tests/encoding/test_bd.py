"""Tests for the Base+Delta codec (paper Sec. 2.2, Eq. 5-6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.color.srgb import encode_srgb8
from repro.encoding.bd import (
    BASE_FIELD_BITS,
    HEADER_BITS,
    WIDTH_FIELD_BITS,
    BDCodec,
    EncodedFrame,
    bd_breakdown,
    delta_widths,
)
from repro.encoding.tiling import tile_frame
from repro.scenes.library import render_scene

from bd_reference import decode_legacy, encode_legacy


class TestDeltaWidths:
    def test_constant_channel_needs_zero_bits(self):
        tiles = np.full((2, 16, 3), 77, dtype=np.uint8)
        assert np.array_equal(delta_widths(tiles), np.zeros((2, 3), dtype=np.int64))

    @pytest.mark.parametrize(
        "value_range,expected_width",
        [(1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4), (255, 8)],
    )
    def test_known_ranges(self, value_range, expected_width):
        tiles = np.zeros((1, 16, 3), dtype=np.uint8)
        tiles[0, 0, :] = value_range
        assert delta_widths(tiles)[0, 0] == expected_width

    def test_per_channel_independence(self):
        tiles = np.zeros((1, 4, 3), dtype=np.uint8)
        tiles[0, :, 0] = [0, 0, 0, 0]
        tiles[0, :, 1] = [10, 11, 12, 13]
        tiles[0, :, 2] = [0, 128, 200, 255]
        assert list(delta_widths(tiles)[0]) == [0, 2, 8]

    def test_rejects_float_tiles(self):
        with pytest.raises(TypeError, match="uint8"):
            delta_widths(np.zeros((1, 4, 3)))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match=r"\(n_tiles, pixels, 3\)"):
            delta_widths(np.zeros((4, 4), dtype=np.uint8))


class TestBreakdown:
    def test_component_arithmetic(self, rng):
        tiles = rng.integers(0, 256, (10, 16, 3), dtype=np.uint8)
        breakdown = bd_breakdown(tiles)
        assert breakdown.base_bits == BASE_FIELD_BITS * 3 * 10
        assert breakdown.metadata_bits == WIDTH_FIELD_BITS * 3 * 10
        assert breakdown.header_bits == HEADER_BITS
        widths = delta_widths(tiles)
        assert breakdown.delta_bits == int(widths.sum()) * 16

    def test_custom_pixel_count(self, rng):
        tiles = rng.integers(0, 256, (4, 16, 3), dtype=np.uint8)
        breakdown = bd_breakdown(tiles, n_pixels=50)
        assert breakdown.n_pixels == 50


class TestCodecRoundTrip:
    @pytest.mark.parametrize("shape", [(8, 8), (16, 12), (13, 17), (4, 4), (1, 1)])
    def test_random_frames(self, rng, shape):
        frame = rng.integers(0, 256, (*shape, 3), dtype=np.uint8)
        codec = BDCodec(tile_size=4)
        encoded = codec.encode(frame)
        assert np.array_equal(codec.decode(encoded), frame)

    def test_scene_frame(self):
        frame = encode_srgb8(render_scene("office", 32, 32))
        codec = BDCodec(tile_size=4)
        assert np.array_equal(codec.decode(codec.encode(frame)), frame)

    @pytest.mark.parametrize("tile_size", [1, 2, 4, 8])
    def test_tile_sizes(self, rng, tile_size):
        frame = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
        codec = BDCodec(tile_size=tile_size)
        assert np.array_equal(codec.decode(codec.encode(frame)), frame)

    def test_constant_frame_compresses_hard(self):
        frame = np.full((16, 16, 3), 200, dtype=np.uint8)
        encoded = BDCodec(tile_size=4).encode(frame)
        # 16 tiles x 3 channels x 12 bits + header, and nothing else.
        assert encoded.breakdown.total_bits == 16 * 3 * 12 + HEADER_BITS

    def test_stream_length_matches_breakdown(self, rng):
        frame = rng.integers(0, 256, (12, 12, 3), dtype=np.uint8)
        encoded = BDCodec(tile_size=4).encode(frame)
        expected_bytes = -(-encoded.breakdown.total_bits // 8)
        assert len(encoded.data) == expected_bytes

    def test_gradient_beats_noise(self, rng):
        gradient = np.broadcast_to(
            np.arange(16, dtype=np.uint8)[:, None, None] * 3 + 100, (16, 16, 3)
        ).copy()
        noise = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
        codec = BDCodec(tile_size=4)
        assert (
            codec.encode(gradient).breakdown.total_bits
            < codec.encode(noise).breakdown.total_bits
        )

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=6),
    )
    def test_round_trip_property(self, height, width, tile_size):
        rng = np.random.default_rng(height * 100 + width)
        frame = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
        codec = BDCodec(tile_size=tile_size)
        assert np.array_equal(codec.decode(codec.encode(frame)), frame)


def _edge_case_frames(rng):
    """The bitstream edge geometries every BD codec must survive.

    Covers: tile_size=1, frame dims not divisible by the tile size,
    1x1 frames, all-flat tiles (delta width 0), and max-width (8-bit)
    deltas.
    """
    flat = np.full((16, 16, 3), 127, dtype=np.uint8)
    maxwidth = np.zeros((16, 16, 3), dtype=np.uint8)
    maxwidth[::2, ::2] = 255  # range 255 in every tile -> 8-bit deltas
    return [
        ("tile_size_1", rng.integers(0, 256, (8, 8, 3), dtype=np.uint8), 1),
        ("non_divisible", rng.integers(0, 256, (13, 17, 3), dtype=np.uint8), 4),
        ("one_by_one", rng.integers(0, 256, (1, 1, 3), dtype=np.uint8), 4),
        ("one_by_one_tile_1", rng.integers(0, 256, (1, 1, 3), dtype=np.uint8), 1),
        ("all_flat", flat, 4),
        ("max_width", maxwidth, 4),
        ("tall_sliver", rng.integers(0, 256, (31, 2, 3), dtype=np.uint8), 8),
    ]


class TestVectorizedMatchesLegacy:
    """The vectorized kernels must reproduce the legacy bitstream exactly."""

    def test_scene_frame_byte_identical(self):
        frame = encode_srgb8(render_scene("office", 48, 48))
        codec = BDCodec(tile_size=4)
        vectorized = codec.encode(frame)
        legacy = encode_legacy(codec, frame)
        assert vectorized.data == legacy.data
        assert vectorized.breakdown == legacy.breakdown

    def test_edge_geometries_byte_identical_and_round_trip(self, rng):
        for label, frame, tile_size in _edge_case_frames(rng):
            codec = BDCodec(tile_size=tile_size)
            vectorized = codec.encode(frame)
            legacy = encode_legacy(codec, frame)
            assert vectorized.data == legacy.data, label
            assert vectorized.breakdown == legacy.breakdown, label
            assert np.array_equal(codec.decode(vectorized), frame), label
            assert np.array_equal(decode_legacy(vectorized), frame), label
            assert np.array_equal(codec.decode(legacy), frame), label

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_byte_equality_property(self, height, width, tile_size, seed):
        rng = np.random.default_rng(seed)
        frame = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
        codec = BDCodec(tile_size=tile_size)
        vectorized = codec.encode(frame)
        legacy = encode_legacy(codec, frame)
        assert vectorized.data == legacy.data
        assert np.array_equal(codec.decode(vectorized), frame)
        assert np.array_equal(decode_legacy(vectorized), frame)

    def test_truncated_stream_raises_eof(self, rng):
        frame = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        codec = BDCodec(tile_size=4)
        encoded = codec.encode(frame)
        # Cut mid-stream, and inside the 40-bit header.
        for length in (len(encoded.data) // 2, 3):
            truncated = EncodedFrame(
                data=encoded.data[:length],
                grid=encoded.grid,
                breakdown=encoded.breakdown,
            )
            with pytest.raises(EOFError, match="exhausted"):
                codec.decode(truncated)
            with pytest.raises(EOFError, match="exhausted"):
                decode_legacy(truncated)

    def test_header_grid_mismatch_raises(self, rng):
        frame = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        other = rng.integers(0, 256, (12, 8, 3), dtype=np.uint8)
        codec = BDCodec(tile_size=4)
        encoded = codec.encode(frame)
        mismatched = EncodedFrame(
            data=codec.encode(other).data,
            grid=encoded.grid,
            breakdown=encoded.breakdown,
        )
        with pytest.raises(ValueError, match="header disagrees"):
            codec.decode(mismatched)


class TestCodecValidation:
    def test_rejects_float_frame(self):
        with pytest.raises(TypeError, match="uint8"):
            BDCodec().encode(np.zeros((8, 8, 3)))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match=r"\(H, W, 3\)"):
            BDCodec().encode(np.zeros((8, 8), dtype=np.uint8))

    def test_rejects_bad_tile_size(self):
        with pytest.raises(ValueError, match="tile_size"):
            BDCodec(tile_size=0)

    def test_accounting_matches_fast_path(self, rng):
        """The bitstream codec and the vectorized accounting agree."""
        frame = rng.integers(0, 256, (20, 24, 3), dtype=np.uint8)
        encoded = BDCodec(tile_size=4).encode(frame)
        tiles, grid = tile_frame(frame, 4)
        fast = bd_breakdown(tiles, n_pixels=grid.height * grid.width)
        assert fast.total_bits == encoded.breakdown.total_bits
