"""Tests for the variable-width BD extension (paper footnote 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.registry import get_codec
from repro.encoding.bd import BDCodec, EncodedFrame, bd_breakdown, delta_widths
from repro.encoding.bd_variable import (
    VariableBDCodec,
    VariableEncodedFrame,
    group_delta_widths,
    variable_bd_breakdown,
)
from repro.encoding.tiling import tile_frame

from bd_reference import decode_variable_legacy, encode_variable_legacy


class TestGroupWidths:
    def test_uniform_tile_zero_widths(self):
        tiles = np.full((2, 16, 3), 50, dtype=np.uint8)
        widths = group_delta_widths(tiles, group_size=4)
        assert widths.shape == (2, 4, 3)
        assert widths.sum() == 0

    def test_skewed_tile_localizes_width(self):
        """An edge confined to one group should cost width only there."""
        tiles = np.full((1, 16, 3), 100, dtype=np.uint8)
        tiles[0, :4, :] = 200  # only the first group carries the edge
        widths = group_delta_widths(tiles, group_size=4)
        assert (widths[0, 0] == 7).all()  # range 100 -> 7 bits
        assert widths[0, 1:].sum() == 0

    def test_deltas_relative_to_tile_base(self):
        """Widths use the tile-wide minimum, not per-group minima."""
        tiles = np.full((1, 8, 3), 0, dtype=np.uint8)
        tiles[0, 4:, :] = 16  # second group constant, but offset from base
        widths = group_delta_widths(tiles, group_size=4)
        assert (widths[0, 1] == 5).all()  # delta 16 needs 5 bits

    def test_rejects_indivisible_groups(self):
        tiles = np.zeros((1, 16, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="divisible"):
            group_delta_widths(tiles, group_size=5)

    def test_rejects_float_tiles(self):
        with pytest.raises(TypeError, match="uint8"):
            group_delta_widths(np.zeros((1, 16, 3)), group_size=4)


class TestBreakdown:
    def test_metadata_scales_with_groups(self, rng):
        tiles = rng.integers(0, 256, (10, 16, 3), dtype=np.uint8)
        fine = variable_bd_breakdown(tiles, group_size=2)
        coarse = variable_bd_breakdown(tiles, group_size=8)
        assert fine.metadata_bits > coarse.metadata_bits

    def test_variable_deltas_never_exceed_fixed(self, rng):
        """Group widths are bounded by the tile width, so the delta
        component can only shrink."""
        tiles = rng.integers(0, 256, (30, 16, 3), dtype=np.uint8)
        fixed = bd_breakdown(tiles)
        variable = variable_bd_breakdown(tiles, group_size=4)
        assert variable.delta_bits <= fixed.delta_bits
        assert variable.base_bits == fixed.base_bits

    def test_wins_on_skewed_content(self):
        tiles = np.full((50, 16, 3), 100, dtype=np.uint8)
        tiles[:, 0, :] = 228  # single outlier pixel per tile
        fixed = bd_breakdown(tiles)
        variable = variable_bd_breakdown(tiles, group_size=4)
        assert variable.total_bits < fixed.total_bits

    def test_loses_on_uniformly_noisy_content(self, rng):
        """When every group spans the full range, the extra width
        fields are pure overhead."""
        tiles = rng.integers(0, 256, (50, 16, 3), dtype=np.uint8)
        fixed = bd_breakdown(tiles)
        variable = variable_bd_breakdown(tiles, group_size=4)
        assert variable.total_bits >= fixed.total_bits - 50 * 12


class TestCodecRoundTrip:
    @pytest.mark.parametrize("shape", [(8, 8), (13, 17), (4, 4)])
    def test_random_frames(self, rng, shape):
        frame = rng.integers(0, 256, (*shape, 3), dtype=np.uint8)
        codec = VariableBDCodec(tile_size=4, group_size=4)
        assert np.array_equal(codec.decode(codec.encode(frame)), frame)

    @pytest.mark.parametrize("group_size", [1, 2, 4, 8, 16])
    def test_group_sizes(self, rng, group_size):
        frame = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        codec = VariableBDCodec(tile_size=4, group_size=group_size)
        assert np.array_equal(codec.decode(codec.encode(frame)), frame)

    def test_stream_length_matches_breakdown(self, rng):
        frame = rng.integers(0, 256, (12, 12, 3), dtype=np.uint8)
        encoded = VariableBDCodec().encode(frame)
        assert len(encoded.data) == -(-encoded.breakdown.total_bits // 8)

    def test_breakdown_matches_fast_path(self, rng):
        frame = rng.integers(0, 256, (16, 20, 3), dtype=np.uint8)
        encoded = VariableBDCodec().encode(frame)
        tiles, grid = tile_frame(frame, 4)
        fast = variable_bd_breakdown(tiles, 4, n_pixels=grid.height * grid.width)
        assert fast.total_bits == encoded.breakdown.total_bits

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=20))
    def test_round_trip_property(self, height, width):
        rng = np.random.default_rng(height * 100 + width)
        frame = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
        codec = VariableBDCodec(tile_size=4, group_size=4)
        assert np.array_equal(codec.decode(codec.encode(frame)), frame)


class TestVectorizedMatchesLegacy:
    """Vectorized variable-BD must reproduce the legacy bitstream exactly."""

    def test_edge_geometries_byte_identical_and_round_trip(self, rng):
        flat = np.full((16, 16, 3), 80, dtype=np.uint8)
        maxwidth = np.zeros((16, 16, 3), dtype=np.uint8)
        maxwidth[::2, ::2] = 255
        cases = [
            ("tile_size_1", rng.integers(0, 256, (8, 8, 3), dtype=np.uint8), 1, 1),
            ("non_divisible", rng.integers(0, 256, (13, 17, 3), dtype=np.uint8), 4, 4),
            ("one_by_one", rng.integers(0, 256, (1, 1, 3), dtype=np.uint8), 4, 2),
            ("one_by_one_tile_1", rng.integers(0, 256, (1, 1, 3), dtype=np.uint8), 1, 1),
            ("all_flat", flat, 4, 4),
            ("max_width", maxwidth, 4, 4),
            ("whole_tile_group", rng.integers(0, 256, (9, 5, 3), dtype=np.uint8), 4, 16),
        ]
        for label, frame, tile_size, group_size in cases:
            codec = VariableBDCodec(tile_size=tile_size, group_size=group_size)
            vectorized = codec.encode(frame)
            legacy = encode_variable_legacy(codec, frame)
            assert vectorized.data == legacy.data, label
            assert vectorized.breakdown == legacy.breakdown, label
            assert np.array_equal(codec.decode(vectorized), frame), label
            assert np.array_equal(decode_variable_legacy(vectorized), frame), label
            assert np.array_equal(codec.decode(legacy), frame), label

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
        st.sampled_from([(1, 1), (2, 2), (4, 2), (4, 4), (4, 16), (3, 9)]),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_byte_equality_property(self, height, width, sizes, seed):
        tile_size, group_size = sizes
        rng = np.random.default_rng(seed)
        frame = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
        codec = VariableBDCodec(tile_size=tile_size, group_size=group_size)
        vectorized = codec.encode(frame)
        legacy = encode_variable_legacy(codec, frame)
        assert vectorized.data == legacy.data
        assert np.array_equal(codec.decode(vectorized), frame)
        assert np.array_equal(decode_variable_legacy(vectorized), frame)

    def test_truncated_stream_raises_eof(self, rng):
        frame = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        codec = VariableBDCodec(tile_size=4, group_size=4)
        encoded = codec.encode(frame)
        truncated = VariableEncodedFrame(
            data=encoded.data[: len(encoded.data) // 2],
            grid=encoded.grid,
            group_size=encoded.group_size,
            breakdown=encoded.breakdown,
        )
        with pytest.raises(EOFError, match="exhausted"):
            codec.decode(truncated)
        with pytest.raises(EOFError, match="exhausted"):
            decode_variable_legacy(truncated)

    @pytest.mark.parametrize("wrong_group_size", [2, 8, 16])
    def test_record_naming_another_group_size_raises(self, rng, wrong_group_size):
        """The stream does not carry its group size; a record naming another
        one walks to a different end, which the decoder rejects."""
        frame = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        encoded = VariableBDCodec(tile_size=4, group_size=4).encode(frame)
        misnamed = VariableEncodedFrame(
            data=encoded.data,
            grid=encoded.grid,
            group_size=wrong_group_size,
            breakdown=encoded.breakdown,
        )
        with pytest.raises(ValueError, match="another group size"):
            VariableBDCodec(tile_size=4, group_size=wrong_group_size).decode(misnamed)

    @pytest.mark.parametrize("group_size", [4, 16])
    def test_trailing_byte_raises(self, rng, group_size):
        frame = rng.integers(0, 256, (8, 12, 3), dtype=np.uint8)
        codec = VariableBDCodec(tile_size=4, group_size=group_size)
        encoded = codec.encode(frame)
        padded = VariableEncodedFrame(
            data=encoded.data + b"\x00",
            grid=encoded.grid,
            group_size=group_size,
            breakdown=encoded.breakdown,
        )
        with pytest.raises(ValueError, match="followed by other data"):
            codec.decode(padded)
        assert np.array_equal(codec.decode(encoded), frame)


class TestOneGroupIsFixedWidth:
    """Fixed-width BD is the grouped format with one group per tile channel."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=8),
        st.sampled_from(["flat", "full"]),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_one_group_per_tile_matches_fixed(self, height, width, tile_size, content, seed):
        rng = np.random.default_rng(seed)
        if content == "flat":
            frame = np.full((height, width, 3), rng.integers(0, 256), dtype=np.uint8)
        else:
            frame = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
        pixels = tile_size * tile_size
        fixed_codec = BDCodec(tile_size)
        grouped_codec = VariableBDCodec(tile_size, pixels)
        fixed = fixed_codec.encode(frame)
        grouped = grouped_codec.encode(frame)
        assert fixed.data == grouped.data
        assert fixed.breakdown == grouped.breakdown
        as_fixed = EncodedFrame(grouped.data, grouped.grid, grouped.breakdown)
        as_grouped = VariableEncodedFrame(fixed.data, fixed.grid, pixels, fixed.breakdown)
        assert np.array_equal(fixed_codec.decode(as_fixed), frame)
        assert np.array_equal(grouped_codec.decode(as_grouped), frame)
        tiles, _ = tile_frame(frame, tile_size)
        assert bd_breakdown(tiles) == variable_bd_breakdown(tiles, pixels)
        assert np.array_equal(delta_widths(tiles), group_delta_widths(tiles, pixels)[:, 0])


class TestValidation:
    def test_rejects_indivisible_tile_group_combo(self):
        with pytest.raises(ValueError, match="divisible"):
            VariableBDCodec(tile_size=3, group_size=4)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="tile_size"):
            VariableBDCodec(tile_size=0)
        with pytest.raises(ValueError, match="group_size"):
            VariableBDCodec(group_size=0)

    def test_rejects_float_frame(self):
        with pytest.raises(TypeError, match="uint8"):
            VariableBDCodec().encode(np.zeros((8, 8, 3)))

    def test_registered_codec_rejects_indivisible_group_at_construction(self):
        with pytest.raises(ValueError, match="divisible by group_size"):
            get_codec("variable-bd", tile_size=4, group_size=3)

    @pytest.mark.parametrize("group_size", [0, 3, 5])
    def test_decode_rejects_unusable_record_group_size(self, rng, group_size):
        frame = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        codec = VariableBDCodec(tile_size=4, group_size=4)
        encoded = codec.encode(frame)
        bad = VariableEncodedFrame(encoded.data, encoded.grid, group_size, encoded.breakdown)
        with pytest.raises(ValueError, match="group_size"):
            codec.decode(bad)
