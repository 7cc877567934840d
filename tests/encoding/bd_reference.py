"""Per-field reference BD and variable-BD bitstream paths (test oracles).

The executable definition of both stream formats: one ``BitWriter`` /
``BitReader`` call per field (from ``bitio.py`` beside this module),
exactly as the format is specified.  The
vectorized :class:`~repro.encoding.bd.BDCodec` and
:class:`~repro.encoding.bd_variable.VariableBDCodec` must reproduce
these streams byte for byte and decode each other's output; the tests
in this directory and the legacy kernel benchmarks compare against
them.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.bd import (
    BASE_FIELD_BITS,
    WIDTH_FIELD_BITS,
    BDCodec,
    EncodedFrame,
    bd_breakdown,
    delta_widths,
)
from repro.encoding.bd_variable import (
    VariableBDCodec,
    VariableEncodedFrame,
    group_delta_widths,
    variable_bd_breakdown,
)
from repro.encoding.tiling import TileGrid, tile_frame, untile_frame

from bitio import BitReader, BitWriter


def _write_header(writer: BitWriter, grid: TileGrid) -> None:
    writer.write(grid.height, 16)
    writer.write(grid.width, 16)
    writer.write(grid.tile_size, 8)


def _read_header(reader: BitReader, expected: TileGrid) -> TileGrid:
    grid = TileGrid(height=reader.read(16), width=reader.read(16), tile_size=reader.read(8))
    if grid != expected:
        raise ValueError("bitstream header disagrees with the encoded frame's grid")
    return grid


def encode_legacy(codec: BDCodec, frame_srgb8) -> EncodedFrame:
    """Reference BD encoder: one ``BitWriter`` call per field."""
    tiles, grid = tile_frame(np.asarray(frame_srgb8), codec.tile_size)
    bases = tiles.min(axis=1)  # (n_tiles, 3)
    widths = delta_widths(tiles)

    writer = BitWriter()
    _write_header(writer, grid)
    deltas = tiles.astype(np.int64) - bases[:, None, :]
    for tile_index in range(tiles.shape[0]):
        for channel in range(3):
            writer.write(int(bases[tile_index, channel]), BASE_FIELD_BITS)
            width = int(widths[tile_index, channel])
            writer.write(width, WIDTH_FIELD_BITS)
            if width:
                writer.write_many(deltas[tile_index, :, channel], width)

    breakdown = bd_breakdown(tiles, n_pixels=grid.height * grid.width)
    return EncodedFrame(data=writer.getvalue(), grid=grid, breakdown=breakdown)


def decode_legacy(encoded: EncodedFrame) -> np.ndarray:
    """Reference BD decoder: one ``BitReader`` call per field run."""
    reader = BitReader(encoded.data)
    grid = _read_header(reader, encoded.grid)
    pixels_per_tile = grid.pixels_per_tile
    tiles = np.empty((grid.n_tiles, pixels_per_tile, 3), dtype=np.uint8)
    for tile_index in range(grid.n_tiles):
        for channel in range(3):
            base = reader.read(BASE_FIELD_BITS)
            delta_width = reader.read(WIDTH_FIELD_BITS)
            if delta_width:
                values = reader.read_many(pixels_per_tile, delta_width)
                tiles[tile_index, :, channel] = base + values
            else:
                tiles[tile_index, :, channel] = base
    return untile_frame(tiles, grid)


def encode_variable_legacy(codec: VariableBDCodec, frame_srgb8) -> VariableEncodedFrame:
    """Reference variable-BD encoder: one ``BitWriter`` call per field."""
    tiles, grid = tile_frame(np.asarray(frame_srgb8), codec.tile_size)
    bases = tiles.min(axis=1)
    widths = group_delta_widths(tiles, codec.group_size)
    deltas = tiles.astype(np.int64) - bases[:, None, :]

    writer = BitWriter()
    _write_header(writer, grid)
    group_size = codec.group_size
    n_groups = grid.pixels_per_tile // group_size
    for tile_index in range(tiles.shape[0]):
        for channel in range(3):
            writer.write(int(bases[tile_index, channel]), BASE_FIELD_BITS)
            for group in range(n_groups):
                width = int(widths[tile_index, group, channel])
                writer.write(width, WIDTH_FIELD_BITS)
                if width:
                    start = group * group_size
                    writer.write_many(
                        deltas[tile_index, start : start + group_size, channel], width
                    )
    breakdown = variable_bd_breakdown(tiles, group_size, n_pixels=grid.height * grid.width)
    return VariableEncodedFrame(
        data=writer.getvalue(), grid=grid, group_size=group_size, breakdown=breakdown,
    )


def decode_variable_legacy(encoded: VariableEncodedFrame) -> np.ndarray:
    """Reference variable-BD decoder: one ``BitReader`` call per field run."""
    reader = BitReader(encoded.data)
    grid = _read_header(reader, encoded.grid)
    group_size = encoded.group_size
    pixels = grid.pixels_per_tile
    tiles = np.empty((grid.n_tiles, pixels, 3), dtype=np.uint8)
    for tile_index in range(grid.n_tiles):
        for channel in range(3):
            base = reader.read(BASE_FIELD_BITS)
            for group in range(pixels // group_size):
                delta_width = reader.read(WIDTH_FIELD_BITS)
                run = slice(group * group_size, (group + 1) * group_size)
                if delta_width:
                    tiles[tile_index, run, channel] = base + reader.read_many(
                        group_size, delta_width
                    )
                else:
                    tiles[tile_index, run, channel] = base
    return untile_frame(tiles, grid)
