"""Temporal Base+Delta: inter-frame framebuffer compression.

The paper's traffic taxonomy (Fig. 3) includes video traffic, and its
related work cites content caches exploiting inter-frame value
similarity.  Spatial BD ignores the strongest structure a framebuffer
stream has — consecutive frames are nearly identical wherever nothing
moved.  This module adds the canonical temporal mode on top of the
spatial codec:

Per tile and per channel, the encoder chooses between

* **spatial mode** — base + deltas within the tile (the paper's BD);
* **temporal mode** — deltas against the co-located tile of the
  *previous decoded* frame (signed, stored with one sign bit plus
  magnitude), worthwhile when the tile barely changed.

One mode bit per tile-channel records the choice; the decoder needs
the previous frame (which the display path holds anyway) and the same
delta reconstruction it already has — the hardware delta is one frame
buffer read, which is why real compressors (and the paper's cited
content caches) consider this the cheap direction to extend.

Works with the perceptual adjustment unchanged: adjusted frames are
*more* temporally stable than their inputs (see the flicker audit), so
the two compose well — measured by the temporal-BD extension bench.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounting import SizeBreakdown
from .bd import _WIDTH_LUT, BASE_FIELD_BITS, HEADER_BITS, WIDTH_FIELD_BITS, delta_widths

__all__ = ["MODE_FIELD_BITS", "temporal_delta_widths", "TemporalBDAccountant"]

#: One bit per tile-channel selects spatial vs temporal mode.
MODE_FIELD_BITS = 1


def temporal_delta_widths(tiles, previous_tiles) -> np.ndarray:
    """Per-tile-channel widths for signed deltas vs the previous frame.

    The temporal delta of a pixel is ``current - previous`` (range
    -255..255); it is stored as sign + magnitude, so the width is
    ``ceil(log2(max|delta| + 1)) + 1`` bits, with identical tiles
    needing zero bits.
    """
    current = np.asarray(tiles)
    previous = np.asarray(previous_tiles)
    if current.shape != previous.shape:
        raise ValueError(
            f"tile stacks must match: {current.shape} vs {previous.shape}"
        )
    if current.dtype != np.uint8 or previous.dtype != np.uint8:
        raise TypeError("temporal BD operates on uint8 sRGB tiles")
    magnitude = np.abs(current.astype(np.int64) - previous.astype(np.int64)).max(axis=1)
    return _WIDTH_LUT[magnitude] + (magnitude > 0)


@dataclass
class TemporalBDAccountant:
    """Stateful per-stream size accounting with temporal mode choice.

    Feed it the tile stacks of consecutive frames (all tiled with the
    same tile size); it returns a :class:`SizeBreakdown` per frame,
    choosing the cheaper mode per tile-channel.  The first frame is
    fully spatial, and so is a frame whose tile count differs from the
    previous frame's (a resolution change).
    """

    pixels_per_tile: int | None = None
    _previous: np.ndarray | None = None

    def reset(self) -> None:
        """Forget the previous frame (e.g. on scene cut)."""
        self._previous = None

    def push(self, tiles, n_pixels: int | None = None) -> SizeBreakdown:
        """Account one frame's tiles and remember them for the next."""
        arr = np.asarray(tiles)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"tiles must be (n_tiles, pixels, 3), got {arr.shape}")
        if arr.dtype != np.uint8:
            raise TypeError("temporal BD operates on uint8 sRGB tiles")
        if self.pixels_per_tile is None:
            self.pixels_per_tile = arr.shape[1]
        elif arr.shape[1] != self.pixels_per_tile:
            raise ValueError(
                f"tile size changed mid-stream: {arr.shape[1]} vs {self.pixels_per_tile}"
            )
        n_tiles, pixels = arr.shape[0], arr.shape[1]

        widths = delta_widths(arr)  # (n_tiles, 3), spatial mode
        use_temporal = np.zeros(widths.shape, dtype=bool)
        if self._previous is not None and self._previous.shape == arr.shape:
            temporal_widths = temporal_delta_widths(arr, self._previous)
            # Temporal mode needs no base field (the reference is the
            # previous frame) but still a width field.
            use_temporal = (
                WIDTH_FIELD_BITS + pixels * temporal_widths
                < BASE_FIELD_BITS + WIDTH_FIELD_BITS + pixels * widths
            )
            widths = np.where(use_temporal, temporal_widths, widths)

        base_bits = int((~use_temporal).sum()) * BASE_FIELD_BITS
        metadata_bits = (
            n_tiles * 3 * (WIDTH_FIELD_BITS + MODE_FIELD_BITS)
        )
        self._previous = arr.copy()
        return SizeBreakdown(
            base_bits=base_bits,
            metadata_bits=metadata_bits,
            delta_bits=int(widths.sum()) * pixels,
            header_bits=HEADER_BITS,
            n_pixels=n_pixels if n_pixels is not None else n_tiles * pixels,
        )
