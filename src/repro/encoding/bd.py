"""Base+Delta (BD) framebuffer codec (paper Sec. 2.2, Eq. 5-6).

BD is the numerically lossless compression that today's mobile SoCs
apply to all DRAM framebuffer traffic (e.g. Arm AFBC; the paper assumes
the format of Zhang et al. [76]).  Per tile and per channel it stores a
*base* value and fixed-width *deltas* of every pixel from the base:

    bits(tile, channel) = 8 (base) + 4 (width field) + t^2 * w

with ``w = ceil(log2(range + 1))`` the smallest width that can hold the
largest delta in the tile.  Choosing the base as the tile minimum makes
all deltas non-negative, which is both what minimizes ``w`` (the paper's
Eq. 6 remark: any base inside ``[Min, Max]`` is optimal) and what keeps
the format sign-free.

Two interfaces are provided:

* :class:`BDCodec` — a real bitstream encoder/decoder with exact
  round-trip.  Encode and decode run through the vectorized kernels of
  :mod:`repro.encoding.packing` (bit-plane decomposition +
  ``np.packbits``), emitting whole per-(tile, channel) delta runs per
  kernel call instead of one ``BitWriter`` call per field; property
  tests assert *byte-identical* streams against the per-field
  ``BitWriter`` / ``BitReader`` reference path kept in the test suite.
* :func:`bd_breakdown` / :func:`delta_widths` — fast vectorized bit
  *accounting* over tile stacks, used by the frame-scale experiments
  (the stream contents are irrelevant for bandwidth numbers).

All agree bit-for-bit on total size; tests assert it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounting import SizeBreakdown
from .bitio import BitReader
from .packing import (
    bits_to_bytes,
    bytes_to_bits,
    gather_field_runs,
    gather_fields,
    pack_fields,
    scatter_field_runs,
    scatter_fields,
    sliding_field_values,
)
from .tiling import TileGrid, tile_frame, untile_frame

__all__ = [
    "BASE_FIELD_BITS",
    "WIDTH_FIELD_BITS",
    "HEADER_BITS",
    "delta_widths",
    "bd_breakdown",
    "bd_stream_bytes",
    "EncodedFrame",
    "BDCodec",
]

#: Bits to store one base value (8-bit sRGB channel).
BASE_FIELD_BITS = 8
#: Bits of per-tile-per-channel metadata: the delta width (0..8 fits in 4).
WIDTH_FIELD_BITS = 4
#: Stream header: 16-bit height, 16-bit width, 8-bit tile size.
HEADER_BITS = 40


def _validate_tiles(tiles) -> np.ndarray:
    arr = np.asarray(tiles)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"tiles must be (n_tiles, pixels, 3), got {arr.shape}")
    if arr.dtype != np.uint8:
        raise TypeError(f"BD operates on uint8 sRGB codes, got dtype {arr.dtype}")
    return arr


def _validate_frame(frame_srgb8) -> np.ndarray:
    frame = np.asarray(frame_srgb8)
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise ValueError(f"frame must be (H, W, 3), got {frame.shape}")
    if frame.dtype != np.uint8:
        raise TypeError(f"BD encodes uint8 sRGB frames, got dtype {frame.dtype}")
    return frame


#: ``_WIDTH_LUT[r]`` is the delta width for a tile-channel range of ``r``
#: — ``ceil(log2(r + 1))``, tabulated once for every possible uint8
#: range so the hot paths index instead of taking float logs.
_WIDTH_LUT = np.ceil(np.log2(np.arange(256, dtype=np.float64) + 1.0)).astype(np.int64)


def delta_widths(tiles) -> np.ndarray:
    """Per-tile per-channel delta bit widths, shape ``(n_tiles, 3)``.

    ``w = ceil(log2(max - min + 1))``; a constant channel needs zero
    delta bits.  Matches the paper's Eq. 6 (its floor is a typo — a
    range of 2 needs 2 bits, not 1).
    """
    arr = _validate_tiles(tiles)
    ranges = arr.max(axis=1).astype(np.int64) - arr.min(axis=1)
    return _WIDTH_LUT[ranges]


def bd_breakdown(tiles, n_pixels: int | None = None) -> SizeBreakdown:
    """Vectorized BD bit accounting for a tile stack.

    Parameters
    ----------
    tiles:
        ``(n_tiles, pixels_per_tile, 3)`` uint8 sRGB tile stack.
    n_pixels:
        Source pixel count for the bits-per-pixel denominator; defaults
        to the padded tile-stack pixel count.
    """
    arr = _validate_tiles(tiles)
    n_tiles, pixels_per_tile = arr.shape[0], arr.shape[1]
    widths = delta_widths(arr)
    return SizeBreakdown(
        base_bits=BASE_FIELD_BITS * 3 * n_tiles,
        metadata_bits=WIDTH_FIELD_BITS * 3 * n_tiles,
        delta_bits=int(widths.sum()) * pixels_per_tile,
        header_bits=HEADER_BITS,
        n_pixels=n_pixels if n_pixels is not None else n_tiles * pixels_per_tile,
    )


def _header_bits(grid: TileGrid) -> np.ndarray:
    """The 40-bit stream header as a bit array."""
    return np.concatenate(
        [
            pack_fields([grid.height], 16),
            pack_fields([grid.width], 16),
            pack_fields([grid.tile_size], 8),
        ]
    )


def bd_stream_bytes(tiles: np.ndarray, grid: TileGrid) -> bytes:
    """Serialize a tile stack into the BD bitstream, vectorized.

    The stream layout is fully determined by the per-(tile, channel)
    delta widths, so the encoder allocates one zeroed bit array and
    scatters each field family into place
    (:func:`~repro.encoding.packing.scatter_fields`): all bases at
    once, all width fields at once, then the delta runs of each
    distinct width (at most 8 passes).  The bytes are identical to
    what a per-field ``BitWriter`` loop produces.

    Parameters
    ----------
    tiles:
        ``(n_tiles, pixels_per_tile, 3)`` uint8 tile stack matching
        ``grid`` (e.g. from a cached
        :meth:`repro.codecs.context.FrameContext.tiles`).
    grid:
        The tiling geometry to record in the header.
    """
    arr = _validate_tiles(tiles)
    bases = arr.min(axis=1)  # (n_tiles, 3) uint8
    ranges = arr.max(axis=1).astype(np.int64) - bases
    widths = _WIDTH_LUT[ranges]
    return _stream_from_plan(arr, grid, bases, widths)


def _stream_from_plan(
    arr: np.ndarray, grid: TileGrid, bases: np.ndarray, widths: np.ndarray
) -> bytes:
    """Scatter-pack the stream given precomputed bases and widths."""
    n_tiles, p = arr.shape[0], arr.shape[1]
    n_tc = n_tiles * 3
    flat_widths = widths.reshape(n_tc)

    block_bits = (BASE_FIELD_BITS + WIDTH_FIELD_BITS) + p * flat_widths
    block_starts = HEADER_BITS + np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(block_bits)[:-1]]
    )
    total_bits = HEADER_BITS + int(block_bits.sum())
    bits = np.zeros(total_bits, dtype=np.uint8)
    bits[:HEADER_BITS] = _header_bits(grid)
    scatter_fields(bits, block_starts, bases.reshape(n_tc), BASE_FIELD_BITS, validate=False)
    scatter_fields(
        bits, block_starts + BASE_FIELD_BITS, flat_widths, WIDTH_FIELD_BITS, validate=False
    )

    # Deltas are value - channel-min, so they are non-negative and fit
    # their computed width by construction.
    deltas = arr - bases[:, None, :]
    delta_runs = deltas.transpose(0, 2, 1).reshape(n_tc, p)
    delta_starts = block_starts + (BASE_FIELD_BITS + WIDTH_FIELD_BITS)
    scatter_field_runs(bits, delta_starts, flat_widths, delta_runs, p)
    return bits_to_bytes(bits)


def _read_header(data: bytes) -> tuple[np.ndarray, TileGrid]:
    bits = bytes_to_bits(data)
    reader = BitReader(data)
    height = reader.read(16)
    width = reader.read(16)
    tile_size = reader.read(8)
    return bits, TileGrid(height=height, width=width, tile_size=tile_size)


@dataclass(frozen=True)
class EncodedFrame:
    """A BD-encoded frame: the bitstream plus its size decomposition."""

    data: bytes
    grid: TileGrid
    breakdown: SizeBreakdown


class BDCodec:
    """Bitstream Base+Delta codec over square tiles.

    The codec is numerically lossless: ``decode(encode(frame))`` returns
    the input exactly.  The perceptual encoder plugs in *before* this
    codec, adjusting pixels so the deltas shrink (paper Fig. 7).

    :meth:`encode` and :meth:`decode` run on the vectorized kernels of
    :mod:`repro.encoding.packing`; property tests hold both to a
    per-field ``BitWriter`` / ``BitReader`` reference path, byte for
    byte in each direction.
    """

    def __init__(self, tile_size: int = 4):
        if tile_size < 1:
            raise ValueError(f"tile_size must be >= 1, got {tile_size}")
        self.tile_size = tile_size

    def encode(self, frame_srgb8) -> EncodedFrame:
        """Encode an ``(H, W, 3)`` uint8 sRGB frame (vectorized)."""
        frame = _validate_frame(frame_srgb8)
        tiles, grid = tile_frame(frame, self.tile_size)
        bases = tiles.min(axis=1)
        ranges = tiles.max(axis=1).astype(np.int64) - bases
        widths = _WIDTH_LUT[ranges]
        data = _stream_from_plan(tiles, grid, bases, widths)
        breakdown = SizeBreakdown(
            base_bits=BASE_FIELD_BITS * 3 * grid.n_tiles,
            metadata_bits=WIDTH_FIELD_BITS * 3 * grid.n_tiles,
            delta_bits=int(widths.sum()) * grid.pixels_per_tile,
            header_bits=HEADER_BITS,
            n_pixels=grid.height * grid.width,
        )
        return EncodedFrame(data=data, grid=grid, breakdown=breakdown)

    def decode(self, encoded: EncodedFrame) -> np.ndarray:
        """Decode back to the exact ``(H, W, 3)`` uint8 frame (vectorized).

        Walking the stream is inherently sequential — each (tile,
        channel) block's position depends on the delta width stored in
        the block before it — but only the 12-bit headers are read in
        that walk, against precomputed sliding-value tables
        (:func:`~repro.encoding.packing.sliding_field_values`).  The
        delta payload, which dominates the stream, is then gathered in
        at most one vectorized pass per distinct width.
        """
        bits, grid = _read_header(encoded.data)
        if grid != encoded.grid:
            raise ValueError("bitstream header disagrees with the encoded frame's grid")
        p = grid.pixels_per_tile
        n_tc = grid.n_tiles * 3
        # The walk below does one random-access width lookup per block;
        # a bytes table (a 4-bit value fits a byte) makes each lookup a
        # plain C-level index returning a Python int.
        width_at = sliding_field_values(bits, WIDTH_FIELD_BITS).tobytes()
        width_list: list[int] = []
        offset = HEADER_BITS
        header_bits = BASE_FIELD_BITS + WIDTH_FIELD_BITS
        try:
            for _ in range(n_tc):
                w = width_at[offset + BASE_FIELD_BITS]
                width_list.append(w)
                offset += header_bits + p * w
        except IndexError:
            raise EOFError(
                f"bitstream exhausted: need block header at position {offset}, "
                f"stream has {bits.size} bits"
            ) from None
        if offset > bits.size:
            raise EOFError(
                f"bitstream exhausted: need {offset} bits, stream has {bits.size}"
            )
        widths = np.array(width_list, dtype=np.int64)
        # Block i starts after i full blocks: i headers plus p bits per
        # accumulated delta width.
        block_ends = header_bits * np.arange(1, n_tc + 1, dtype=np.int64) + p * np.cumsum(
            widths
        )
        starts = HEADER_BITS + block_ends - p * widths
        bases = gather_fields(bits, starts - header_bits, BASE_FIELD_BITS)
        deltas = gather_field_runs(bits, starts, widths, p)
        flat = bases[:, None] + deltas
        tiles = flat.reshape(grid.n_tiles, 3, p).transpose(0, 2, 1)
        return untile_frame(np.ascontiguousarray(tiles), grid)
