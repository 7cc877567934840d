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

This module owns the one BD stream format.  It is written in *groups*:
after a 40-bit header (16-bit height, 16-bit width, 8-bit tile size),
each (tile, channel) block holds its 8-bit base, then for each group of
``group_size`` pixels a 4-bit width and that many deltas of the width.
Fixed-width BD is the case ``group_size = t^2`` (one group per tile
channel); :mod:`repro.encoding.bd_variable` (the paper's footnote-1
variant) calls into the same plan, serializer and decoder with smaller
groups.

* :class:`BDCodec` — a real bitstream encoder/decoder with exact
  round-trip, running on the vectorized kernels of
  :mod:`repro.encoding.packing`.  Property tests hold its streams byte
  for byte to a per-field reference writer and reader kept in the test
  suite (``tests/encoding/bd_reference.py``).
* :func:`bd_breakdown` / :func:`delta_widths` — fast vectorized bit
  *accounting* over tile stacks, used by the frame-scale experiments
  (the stream contents are irrelevant for bandwidth numbers).

All agree bit-for-bit on total size; tests assert it.
"""
# repro: kernel-module

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounting import SizeBreakdown
from .packing import (
    _pack_byte_windows,
    bits_to_bytes,
    bytes_to_bits,
    gather_field_runs,
    gather_fields,
    pack_fields,
    sliding_field_values,
    unpack_fields,
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
#: Bits of each width field: one delta width (0..8 fits in 4).
WIDTH_FIELD_BITS = 4
#: Stream header: 16-bit height, 16-bit width, 8-bit tile size.
HEADER_BITS = 40

#: ``_WIDTH_LUT[r]`` is the delta width for a range of ``r`` —
#: ``ceil(log2(r + 1))``, tabulated once for every possible uint8
#: range so the hot paths index instead of taking float logs.
_WIDTH_LUT = np.ceil(np.log2(np.arange(256, dtype=np.float64) + 1.0)).astype(np.int64)


def _check_tile_size(tile_size: int) -> None:
    if tile_size < 1:
        raise ValueError(f"tile_size must be >= 1, got {tile_size}")


def _check_group_size(pixels_per_tile: int, group_size: int) -> None:
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    if pixels_per_tile % group_size:
        raise ValueError(
            f"pixels per tile ({pixels_per_tile}) must be divisible by "
            f"group_size ({group_size})"
        )


def _validate_tiles(tiles, group_size: int | None = None) -> np.ndarray:
    arr = np.asarray(tiles)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"tiles must be (n_tiles, pixels, 3), got {arr.shape}")
    if arr.dtype != np.uint8:
        raise TypeError(f"BD operates on uint8 sRGB codes, got dtype {arr.dtype}")
    if group_size is not None:
        _check_group_size(arr.shape[1], group_size)
    return arr


def _validate_frame(frame_srgb8) -> np.ndarray:
    frame = np.asarray(frame_srgb8)
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise ValueError(f"frame must be (H, W, 3), got {frame.shape}")
    if frame.dtype != np.uint8:
        raise TypeError(f"BD encodes uint8 sRGB frames, got dtype {frame.dtype}")
    return frame


def _plan(arr: np.ndarray, group_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Tile bases ``(n_tiles, 3)`` and group widths ``(n_tiles, n_groups, 3)``.

    Deltas are taken against the *tile* base (the per-channel minimum)
    whatever the group size, so a group's width is that of its maximum
    minus the tile minimum.

    Both reductions run over a pixel-major ``(pixels, n_tiles, 3)``
    copy: reducing its leading axis is one elementwise min or max per
    pixel over whole contiguous rows, where reducing the short middle
    axis of the uint8 stack costs about ten times as much.  The widths
    come back as a view in the stack's axis order.
    """
    n_tiles, pixels = arr.shape[0], arr.shape[1]
    by_pixel = np.ascontiguousarray(arr.transpose(1, 0, 2))
    bases = by_pixel.min(axis=0)
    group_max = by_pixel.reshape(pixels // group_size, group_size, n_tiles, 3).max(axis=1)
    return bases, _WIDTH_LUT[group_max - bases].transpose(1, 0, 2)


def _breakdown(widths: np.ndarray, group_size: int, n_pixels: int | None) -> SizeBreakdown:
    """Size decomposition of a stream with ``widths`` from :func:`_plan`."""
    n_tiles, n_groups = widths.shape[0], widths.shape[1]
    return SizeBreakdown(
        base_bits=BASE_FIELD_BITS * 3 * n_tiles,
        metadata_bits=WIDTH_FIELD_BITS * 3 * n_tiles * n_groups,
        delta_bits=int(widths.sum()) * group_size,
        header_bits=HEADER_BITS,
        n_pixels=n_pixels if n_pixels is not None else n_tiles * n_groups * group_size,
    )


def _run_starts(widths: np.ndarray, n_groups: int, group_size: int) -> np.ndarray:
    """Bit offset of every delta run, given the run widths in stream order.

    Run ``k`` follows the header, ``k // n_groups + 1`` bases (one per
    block begun), ``k + 1`` width fields and ``group_size`` bits per
    width before it.
    """
    k = np.arange(widths.size, dtype=np.int64)
    return (
        HEADER_BITS
        + BASE_FIELD_BITS * (k // n_groups + 1)
        + WIDTH_FIELD_BITS * (k + 1)
        + group_size * (np.cumsum(widths) - widths)
    )


def _header_bits(grid: TileGrid) -> np.ndarray:
    """The 40-bit stream header as a bit array."""
    return np.concatenate(
        [pack_fields([grid.height, grid.width], 16), pack_fields([grid.tile_size], 8)]
    )


def _serialize(
    arr: np.ndarray, grid: TileGrid, bases: np.ndarray, widths: np.ndarray, group_size: int
) -> bytes:
    """Pack the stream of a tile stack planned by :func:`_plan`.

    The layout is fully determined by the widths: one ``cumsum`` gives
    every delta run's bit offset (:func:`_run_starts`), and from those
    every base, width field and delta has its own.  The three field
    families are then added into the byte windows they start in
    (:func:`~repro.encoding.packing._pack_byte_windows`), with no
    per-bit array.  Offsets are ``int32`` whenever the stream is
    shorter than 2**31 bits, which halves their memory traffic.
    """
    header = np.frombuffer(bits_to_bytes(_header_bits(grid)), dtype=np.uint8)
    n_groups = arr.shape[1] // group_size
    # Stream order: tile, then channel, then group.
    run_widths = widths.transpose(0, 2, 1).reshape(-1)
    run_starts = _run_starts(run_widths, n_groups, group_size)
    n_bits = int(run_starts[-1]) + group_size * int(run_widths[-1])
    offset = np.int32 if n_bits < 2**31 else np.int64
    run_starts = run_starts.astype(offset)
    run_widths = run_widths.astype(offset)
    block_starts = run_starts[::n_groups] - (BASE_FIELD_BITS + WIDTH_FIELD_BITS)
    # Deltas are value - tile minimum, so they are non-negative and fit
    # their group's width by construction.  Stream order is (tile,
    # channel, pixel): copy transposed, then subtract in place (a copy
    # even where the transpose is contiguous, as with 1-pixel tiles).
    deltas = arr.transpose(0, 2, 1).copy()
    deltas -= bases[:, :, None]
    delta_starts = np.arange(group_size, dtype=offset) * run_widths[:, None]
    delta_starts += run_starts[:, None]
    stream = _pack_byte_windows(
        n_bits,
        (
            (block_starts, bases.reshape(-1), BASE_FIELD_BITS),
            (run_starts - WIDTH_FIELD_BITS, run_widths, WIDTH_FIELD_BITS),
            (delta_starts.reshape(-1), deltas.reshape(-1), np.repeat(run_widths, group_size)),
        ),
    )
    stream[: header.size] = header
    return stream.tobytes()


def _encode(tiles: np.ndarray, grid: TileGrid, group_size: int) -> tuple[bytes, SizeBreakdown]:
    """Stream and breakdown of a frame's tiles, from one plan."""
    bases, widths = _plan(tiles, group_size)
    data = _serialize(tiles, grid, bases, widths, group_size)
    return data, _breakdown(widths, group_size, grid.height * grid.width)


def _decode(data: bytes, grid: TileGrid, group_size: int) -> np.ndarray:
    """Decode a stream back to the exact ``(H, W, 3)`` uint8 frame.

    Walking the stream is inherently sequential — each group's position
    depends on the width stored before it — but only the 4-bit width
    fields are read in that walk, against a precomputed sliding-value
    table (:func:`~repro.encoding.packing.sliding_field_values`).
    Bases and the delta runs of each distinct width are then gathered
    vectorized.
    """
    bits = bytes_to_bits(data)
    height, width = unpack_fields(bits, 0, 2, 16)
    (tile_size,) = unpack_fields(bits, 32, 1, 8)
    if TileGrid(int(height), int(width), int(tile_size)) != grid:
        raise ValueError("bitstream header disagrees with the encoded frame's grid")
    pixels = grid.pixels_per_tile
    _check_group_size(pixels, group_size)
    n_groups = pixels // group_size
    # A bytes table (a 4-bit value fits a byte) makes each width lookup
    # a plain C-level index returning a Python int.
    width_at = sliding_field_values(bits, WIDTH_FIELD_BITS).tobytes()
    # Before each group: the block's base if the group begins a block.
    skips = ([BASE_FIELD_BITS] + [0] * (n_groups - 1)) * (grid.n_tiles * 3)
    width_bits = WIDTH_FIELD_BITS
    width_list: list[int] = []
    offset = HEADER_BITS
    try:
        for skip in skips:
            offset += skip
            w = width_at[offset]
            width_list.append(w)
            offset += width_bits + group_size * w
    except IndexError:
        raise EOFError(
            f"bitstream exhausted: need a width field at position {offset}, "
            f"stream has {bits.size} bits"
        ) from None
    if offset > bits.size:
        raise EOFError(f"bitstream exhausted: need {offset} bits, stream has {bits.size}")
    # A stream ends in the byte holding its last delta.  The stream does not
    # record its group size, so a walk that stops short is the sign of a
    # stream written with another group size (or of trailing bytes).
    if offset <= bits.size - 8:
        raise ValueError(
            f"bitstream has {bits.size} bits but its groups of {group_size} end at "
            f"bit {offset}: written with another group size, or followed by other data"
        )
    widths = np.array(width_list, dtype=np.int64)
    run_starts = _run_starts(widths, n_groups, group_size)
    block_starts = run_starts[::n_groups] - (BASE_FIELD_BITS + WIDTH_FIELD_BITS)
    bases = gather_fields(bits, block_starts, BASE_FIELD_BITS)
    deltas = gather_field_runs(bits, run_starts, widths, group_size)
    flat = bases[:, None] + deltas.reshape(bases.size, pixels)
    tiles = flat.reshape(grid.n_tiles, 3, pixels).transpose(0, 2, 1)
    return untile_frame(np.ascontiguousarray(tiles), grid)


def delta_widths(tiles) -> np.ndarray:
    """Per-tile per-channel delta bit widths, shape ``(n_tiles, 3)``.

    ``w = ceil(log2(max - min + 1))``; a constant channel needs zero
    delta bits.  Matches the paper's Eq. 6 (its floor is a typo — a
    range of 2 needs 2 bits, not 1).
    """
    arr = _validate_tiles(tiles)
    return _plan(arr, arr.shape[1])[1][:, 0]


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
    return _breakdown(_plan(arr, arr.shape[1])[1], arr.shape[1], n_pixels)


def bd_stream_bytes(tiles: np.ndarray, grid: TileGrid) -> bytes:
    """Serialize a tile stack into the BD bitstream, vectorized.

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
    return _serialize(arr, grid, *_plan(arr, arr.shape[1]), arr.shape[1])


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
    """

    def __init__(self, tile_size: int = 4):
        _check_tile_size(tile_size)
        self.tile_size = tile_size

    def encode(self, frame_srgb8) -> EncodedFrame:
        """Encode an ``(H, W, 3)`` uint8 sRGB frame (vectorized)."""
        tiles, grid = tile_frame(_validate_frame(frame_srgb8), self.tile_size)
        data, breakdown = _encode(tiles, grid, grid.pixels_per_tile)
        return EncodedFrame(data=data, grid=grid, breakdown=breakdown)

    def decode(self, encoded: EncodedFrame) -> np.ndarray:
        """Decode back to the exact ``(H, W, 3)`` uint8 frame (vectorized)."""
        return _decode(encoded.data, encoded.grid, encoded.grid.pixels_per_tile)
