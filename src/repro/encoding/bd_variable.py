"""Variable-width Base+Delta: the footnote-1 extension.

The paper assumes one delta bit-width per tile per channel, noting that
varying the width within a tile "is possible, but uncommon ... with
more hardware overhead" (its footnote 1) and calling it orthogonal.
This module implements that orthogonal idea so the trade-off can be
measured: each tile channel is split into fixed *groups* of pixels and
every group carries its own 4-bit width field.

    fixed    bits = 8 + 4 + pixels * w(tile)
    variable bits = 8 + groups * (4 + group_size * w(group))

Variable wins when delta magnitudes are spatially skewed inside a tile
(an edge crossing one corner); it loses the extra width fields on
uniform tiles.  The ablation benchmark quantifies the net effect on
the evaluation scenes.

The stream is the grouped format of :mod:`repro.encoding.bd`, of which
fixed-width BD is the one-group case; every name here calls into that
module's plan, serializer and decoder with the chosen ``group_size``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounting import SizeBreakdown
from .bd import (
    _breakdown,
    _check_group_size,
    _check_tile_size,
    _decode,
    _encode,
    _plan,
    _serialize,
    _validate_frame,
    _validate_tiles,
)
from .tiling import TileGrid, tile_frame

__all__ = [
    "group_delta_widths",
    "variable_bd_breakdown",
    "variable_bd_stream_bytes",
    "VariableEncodedFrame",
    "VariableBDCodec",
]


def group_delta_widths(tiles, group_size: int = 4) -> np.ndarray:
    """Per-group delta widths, shape ``(n_tiles, n_groups, 3)``.

    Deltas are taken against the *tile* base (the per-channel minimum),
    exactly as in fixed-width BD — only the width field granularity
    changes, which is what keeps the decoder hardware almost identical.
    """
    return _plan(_validate_tiles(tiles, group_size), group_size)[1]


def variable_bd_breakdown(
    tiles, group_size: int = 4, n_pixels: int | None = None
) -> SizeBreakdown:
    """Vectorized size accounting for variable-width BD."""
    arr = _validate_tiles(tiles, group_size)
    return _breakdown(_plan(arr, group_size)[1], group_size, n_pixels)


def variable_bd_stream_bytes(tiles: np.ndarray, grid: TileGrid, group_size: int) -> bytes:
    """Serialize a tile stack into the variable-BD bitstream, vectorized."""
    arr = _validate_tiles(tiles, group_size)
    return _serialize(arr, grid, *_plan(arr, group_size), group_size)


@dataclass(frozen=True)
class VariableEncodedFrame:
    """A variable-width-BD-encoded frame."""

    data: bytes
    grid: TileGrid
    group_size: int
    breakdown: SizeBreakdown


class VariableBDCodec:
    """Bitstream codec for the variable-width extension.

    Layout per tile per channel: 8-bit base, then for each pixel group
    a 4-bit width followed by ``group_size`` deltas of that width.
    Round-trip is exact.  The stream does not record ``group_size``;
    the decoder takes it from the :class:`VariableEncodedFrame`.
    """

    def __init__(self, tile_size: int = 4, group_size: int = 4):
        _check_tile_size(tile_size)
        _check_group_size(tile_size * tile_size, group_size)
        self.tile_size = tile_size
        self.group_size = group_size

    def encode(self, frame_srgb8) -> VariableEncodedFrame:
        """Encode an ``(H, W, 3)`` uint8 sRGB frame (vectorized)."""
        tiles, grid = tile_frame(_validate_frame(frame_srgb8), self.tile_size)
        data, breakdown = _encode(tiles, grid, self.group_size)
        return VariableEncodedFrame(
            data=data, grid=grid, group_size=self.group_size, breakdown=breakdown,
        )

    def decode(self, encoded: VariableEncodedFrame) -> np.ndarray:
        """Decode back to the exact ``(H, W, 3)`` uint8 frame (vectorized).

        Raises ``ValueError`` if the record's ``group_size`` is below 1
        or does not divide the pixels per tile.
        """
        return _decode(encoded.data, encoded.grid, encoded.group_size)
