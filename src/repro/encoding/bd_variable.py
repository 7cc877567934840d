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

A full bitstream codec (:class:`VariableBDCodec`) with exact round-trip
is provided alongside the fast accounting, mirroring the fixed-width
module: encode and decode run on the vectorized kernels of
:mod:`repro.encoding.packing`, with property tests asserting
byte-identical streams against a per-field ``BitWriter`` /
``BitReader`` reference path kept in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounting import SizeBreakdown
from .bd import (
    BASE_FIELD_BITS,
    HEADER_BITS,
    WIDTH_FIELD_BITS,
    _header_bits,
    _read_header,
    _validate_frame,
    _WIDTH_LUT,
)
from .packing import (
    bits_to_bytes,
    gather_field_runs,
    gather_fields,
    scatter_field_runs,
    scatter_fields,
    sliding_field_values,
)
from .tiling import TileGrid, tile_frame, untile_frame

__all__ = [
    "group_delta_widths",
    "variable_bd_breakdown",
    "variable_bd_stream_bytes",
    "VariableEncodedFrame",
    "VariableBDCodec",
]


def _validate_tiles(tiles, group_size: int) -> np.ndarray:
    arr = np.asarray(tiles)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"tiles must be (n_tiles, pixels, 3), got {arr.shape}")
    if arr.dtype != np.uint8:
        raise TypeError(f"BD operates on uint8 sRGB codes, got dtype {arr.dtype}")
    if group_size <= 0:
        raise ValueError(f"group_size must be positive, got {group_size}")
    if arr.shape[1] % group_size:
        raise ValueError(
            f"pixels per tile ({arr.shape[1]}) must be divisible by "
            f"group_size ({group_size})"
        )
    return arr


def group_delta_widths(tiles, group_size: int = 4) -> np.ndarray:
    """Per-group delta widths, shape ``(n_tiles, n_groups, 3)``.

    Deltas are taken against the *tile* base (the per-channel minimum),
    exactly as in fixed-width BD — only the width field granularity
    changes, which is what keeps the decoder hardware almost identical.
    """
    arr = _validate_tiles(tiles, group_size)
    bases = arr.min(axis=1)  # (n_tiles, 3)
    deltas = arr - bases[:, None, :]  # uint8: arr >= bases elementwise
    n_tiles, pixels, _ = arr.shape
    grouped = deltas.reshape(n_tiles, pixels // group_size, group_size, 3)
    ranges = grouped.max(axis=2).astype(np.int64)
    return _WIDTH_LUT[ranges]


def variable_bd_breakdown(
    tiles, group_size: int = 4, n_pixels: int | None = None
) -> SizeBreakdown:
    """Vectorized size accounting for variable-width BD."""
    arr = _validate_tiles(tiles, group_size)
    n_tiles, pixels = arr.shape[0], arr.shape[1]
    n_groups = pixels // group_size
    widths = group_delta_widths(arr, group_size)
    return SizeBreakdown(
        base_bits=BASE_FIELD_BITS * 3 * n_tiles,
        metadata_bits=WIDTH_FIELD_BITS * 3 * n_tiles * n_groups,
        delta_bits=int(widths.sum()) * group_size,
        header_bits=HEADER_BITS,
        n_pixels=n_pixels if n_pixels is not None else n_tiles * pixels,
    )


def variable_bd_stream_bytes(tiles: np.ndarray, grid: TileGrid, group_size: int) -> bytes:
    """Serialize a tile stack into the variable-BD bitstream, vectorized.

    Mirrors :func:`repro.encoding.bd.bd_stream_bytes`: the layout is
    fully determined by the per-group widths, so one zeroed bit array
    is allocated and each field family — bases, the per-group width
    fields, the delta runs of each distinct width — is scattered into
    place with :func:`~repro.encoding.packing.scatter_fields`.  Bytes
    are identical to a per-field ``BitWriter`` loop.
    """
    arr = _validate_tiles(tiles, group_size)
    n_tiles, p = arr.shape[0], arr.shape[1]
    n_groups = p // group_size
    n_tc = n_tiles * 3
    bases = arr.min(axis=1)  # (n_tiles, 3) uint8
    deltas = arr - bases[:, None, :]
    grouped = deltas.reshape(n_tiles, n_groups, group_size, 3)
    widths = _WIDTH_LUT[grouped.max(axis=2).astype(np.int64)]  # (n_tiles, n_groups, 3)

    # Flatten to stream order: tile-major, channel, then group.
    flat_w = widths.transpose(0, 2, 1).reshape(n_tc, n_groups)
    group_bits = WIDTH_FIELD_BITS + group_size * flat_w  # (n_tc, n_groups)
    block_bits = BASE_FIELD_BITS + group_bits.sum(axis=1)
    block_starts = HEADER_BITS + np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(block_bits)[:-1]]
    )
    group_starts = (
        block_starts[:, None]
        + BASE_FIELD_BITS
        + np.concatenate(
            [np.zeros((n_tc, 1), dtype=np.int64), np.cumsum(group_bits, axis=1)[:, :-1]],
            axis=1,
        )
    )
    total_bits = HEADER_BITS + int(block_bits.sum())
    bits = np.zeros(total_bits, dtype=np.uint8)
    bits[:HEADER_BITS] = _header_bits(grid)
    scatter_fields(bits, block_starts, bases.reshape(n_tc), BASE_FIELD_BITS, validate=False)
    scatter_fields(
        bits, group_starts.reshape(-1), flat_w.reshape(-1), WIDTH_FIELD_BITS,
        validate=False,
    )

    run_starts = (group_starts + WIDTH_FIELD_BITS).reshape(-1)
    run_widths = flat_w.reshape(-1)
    run_deltas = (
        grouped.transpose(0, 3, 1, 2).reshape(n_tc * n_groups, group_size)
    )
    scatter_field_runs(bits, run_starts, run_widths, run_deltas, group_size)
    return bits_to_bytes(bits)


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
    Round-trip is exact; a test asserts stream length against the
    accounting, as for the fixed codec.  :meth:`encode` /
    :meth:`decode` are vectorized; byte-equality property tests
    compare them against a per-field reference path.
    """

    def __init__(self, tile_size: int = 4, group_size: int = 4):
        if tile_size < 1:
            raise ValueError(f"tile_size must be >= 1, got {tile_size}")
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        if (tile_size * tile_size) % group_size:
            raise ValueError(
                f"tile pixels ({tile_size * tile_size}) must be divisible "
                f"by group_size ({group_size})"
            )
        self.tile_size = tile_size
        self.group_size = group_size

    def encode(self, frame_srgb8) -> VariableEncodedFrame:
        """Encode an ``(H, W, 3)`` uint8 sRGB frame (vectorized)."""
        frame = _validate_frame(frame_srgb8)
        tiles, grid = tile_frame(frame, self.tile_size)
        data = variable_bd_stream_bytes(tiles, grid, self.group_size)
        breakdown = variable_bd_breakdown(
            tiles, self.group_size, n_pixels=grid.height * grid.width
        )
        return VariableEncodedFrame(
            data=data, grid=grid, group_size=self.group_size, breakdown=breakdown,
        )

    def decode(self, encoded: VariableEncodedFrame) -> np.ndarray:
        """Decode back to the exact ``(H, W, 3)`` uint8 frame (vectorized).

        As in :meth:`repro.encoding.bd.BDCodec.decode`, only the width
        fields are read in the sequential walk (each against a
        precomputed sliding-value table); bases and the delta runs of
        each distinct width are then gathered vectorized.
        """
        bits, grid = _read_header(encoded.data)
        if grid != encoded.grid:
            raise ValueError("bitstream header disagrees with the encoded frame's grid")
        gs = encoded.group_size
        p = grid.pixels_per_tile
        n_groups = p // gs
        n_tc = grid.n_tiles * 3
        width_at = sliding_field_values(bits, WIDTH_FIELD_BITS).tobytes()
        width_list: list[int] = []
        offset = HEADER_BITS
        try:
            for _ in range(n_tc):
                offset += BASE_FIELD_BITS
                for _ in range(n_groups):
                    w = width_at[offset]
                    width_list.append(w)
                    offset += WIDTH_FIELD_BITS + gs * w
        except IndexError:
            raise EOFError(
                f"bitstream exhausted: need group width at position {offset}, "
                f"stream has {bits.size} bits"
            ) from None
        if offset > bits.size:
            raise EOFError(
                f"bitstream exhausted: need {offset} bits, stream has {bits.size}"
            )
        widths = np.array(width_list, dtype=np.int64)  # (n_tc * n_groups,)
        # Derive every offset from the walked widths: group k (global,
        # tile-channel-major) starts after k width fields, gs bits per
        # accumulated width, and one 8-bit base per started block.
        k = np.arange(n_tc * n_groups, dtype=np.int64)
        blocks_started = k // n_groups + 1
        cum_w = np.cumsum(widths)
        run_starts = (
            HEADER_BITS
            + BASE_FIELD_BITS * blocks_started
            + WIDTH_FIELD_BITS * (k + 1)
            + gs * (cum_w - widths)
        )
        block_starts = run_starts[::n_groups] - WIDTH_FIELD_BITS - BASE_FIELD_BITS
        bases = gather_fields(bits, block_starts, BASE_FIELD_BITS)
        deltas = gather_field_runs(bits, run_starts, widths, gs)
        flat = bases[:, None] + deltas.reshape(n_tc, p)
        tiles = flat.reshape(grid.n_tiles, 3, p).transpose(0, 2, 1)
        return untile_frame(np.ascontiguousarray(tiles), grid)
