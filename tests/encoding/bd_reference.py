"""Per-field reference BD and variable-BD bitstream paths (test oracles).

The executable definition of both stream formats: one ``BitWriter`` /
``BitReader`` call per field (from ``bitio.py`` beside this module),
exactly as the format is specified.  The
vectorized :class:`~repro.encoding.bd.BDCodec` and
:class:`~repro.encoding.bd_variable.VariableBDCodec` must reproduce
these streams byte for byte and decode each other's output; the tests
in this directory and the legacy kernel benchmarks compare against
them.

:func:`serialize_scatter` is the serializer the package ran before it
packed byte windows: one byte per stream bit, every field scattered
into place, then ``np.packbits``.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.bd import (
    BASE_FIELD_BITS,
    HEADER_BITS,
    WIDTH_FIELD_BITS,
    BDCodec,
    EncodedFrame,
    _header_bits,
    _run_starts,
    bd_breakdown,
    delta_widths,
)
from repro.encoding.bd_variable import (
    VariableBDCodec,
    VariableEncodedFrame,
    group_delta_widths,
    variable_bd_breakdown,
)
from repro.encoding.packing import bits_to_bytes, scatter_field_runs, scatter_fields
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


def serialize_scatter(
    arr: np.ndarray, grid: TileGrid, bases: np.ndarray, widths: np.ndarray, group_size: int
) -> bytes:
    """Scatter-pack the stream of a tile stack planned by ``bd._plan``.

    The layout is fully determined by the widths, so one zeroed bit
    array is allocated and each field family is scattered into place
    (:func:`~repro.encoding.packing.scatter_fields`): all bases at
    once, all width fields at once, then the delta runs of each
    distinct width (at most 8 passes).
    """
    n_tiles, pixels = arr.shape[0], arr.shape[1]
    n_groups = pixels // group_size
    # Stream order: tile, then channel, then group.
    run_widths = widths.transpose(0, 2, 1).reshape(-1)
    run_starts = _run_starts(run_widths, n_groups, group_size)
    bits = np.zeros(int(run_starts[-1]) + group_size * int(run_widths[-1]), dtype=np.uint8)
    bits[:HEADER_BITS] = _header_bits(grid)
    block_starts = run_starts[::n_groups] - (BASE_FIELD_BITS + WIDTH_FIELD_BITS)
    scatter_fields(bits, block_starts, bases.reshape(-1), BASE_FIELD_BITS, validate=False)
    scatter_fields(
        bits, run_starts - WIDTH_FIELD_BITS, run_widths, WIDTH_FIELD_BITS, validate=False
    )
    # Deltas are value - tile minimum, so they are non-negative and fit
    # their group's width by construction.
    deltas = (arr - bases[:, None, :]).reshape(n_tiles, n_groups, group_size, 3)
    runs = deltas.transpose(0, 3, 1, 2).reshape(-1, group_size)
    scatter_field_runs(bits, run_starts, run_widths, runs, group_size)
    return bits_to_bytes(bits)
