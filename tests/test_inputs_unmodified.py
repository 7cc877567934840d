"""Encoder kernels that compute in place leave their inputs untouched.

The sRGB transfers, PNG's filter choice and the BD serializer write
into buffers of their own.  A view of the caller's array in place of
such a buffer (``np.asarray`` of a float64 array, a transpose that is
already contiguous) would silently overwrite the input, so each is
called on inputs that its in-place steps would change, and the inputs
are compared byte for byte afterwards.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.png_codec import png_filter_rows
from repro.color.srgb import encode_srgb8, linear_to_srgb, srgb_to_linear
from repro.encoding.bd import BDCodec, bd_stream_bytes
from repro.encoding.bd_variable import VariableBDCodec, variable_bd_stream_bytes
from repro.encoding.tiling import tile_frame


def _float_inputs(rng):
    """float64 arrays the transfers must not write to: in and out of
    [0, 1], strided, Fortran-ordered and 0-d."""
    wide = rng.uniform(-0.5, 1.5, (16, 12, 3))
    return [
        wide,
        rng.random((16, 12, 3)) * 0.01,
        wide[::2, 1::3],
        np.asfortranarray(rng.uniform(-0.5, 1.5, (9, 7))),
        np.array(0.4),
        np.array(1.7),
    ]


@pytest.mark.parametrize("function", [linear_to_srgb, srgb_to_linear, encode_srgb8])
def test_srgb_transfers_leave_float64_inputs_unmodified(function, rng):
    for values in _float_inputs(rng):
        before = values.copy()
        function(values)
        assert values.tobytes() == before.tobytes()
        assert values.dtype == np.float64 and values.shape == before.shape


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_png_filter_rows_leaves_its_frame_unmodified(height, width, channels, seed):
    frame = np.random.default_rng(seed).integers(
        0, 256, (height, width, channels), dtype=np.uint8
    )
    before = frame.copy()
    png_filter_rows(frame)
    assert frame.tobytes() == before.tobytes()


@pytest.mark.parametrize("tile_size", [1, 2, 3, 4])
def test_bd_serializers_leave_their_inputs_unmodified(tile_size, rng):
    """Tile size 1 makes the serializer's transpose contiguous already."""
    frame = rng.integers(1, 256, (9, 10, 3), dtype=np.uint8)
    frame_before = frame.copy()
    tiles, grid = tile_frame(frame, tile_size)
    tiles_before = tiles.copy()
    pixels = tile_size * tile_size
    bd_stream_bytes(tiles, grid)
    for group_size in (g for g in range(1, pixels + 1) if pixels % g == 0):
        variable_bd_stream_bytes(tiles, grid, group_size)
        VariableBDCodec(tile_size, group_size).encode(frame)
    BDCodec(tile_size).encode(frame)
    assert tiles.tobytes() == tiles_before.tobytes()
    assert frame.tobytes() == frame_before.tobytes()
