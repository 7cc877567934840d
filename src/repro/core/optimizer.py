"""Per-tile axis selection (paper Sec. 3.4, Fig. 7).

The paper runs the analytical adjustment twice per tile — once
minimizing along Blue, once along Red — and keeps whichever yields the
smaller encoded size.  The deciding cost is the *actual* Base+Delta bit
cost of the tile after sRGB quantization, across all three channels:
optimizing one channel shifts the others (moves follow the extrema
vectors), so the full-tile cost is what must be compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..color.srgb import encode_srgb8
from ..encoding.bd import BASE_FIELD_BITS, WIDTH_FIELD_BITS, delta_widths
from .adjust import AxisAdjustment, _adjust_phases, _checked

__all__ = ["tile_bd_bits", "OptimizedTiles", "optimize_tiles"]


def tile_bd_bits(tiles_srgb8: np.ndarray) -> np.ndarray:
    """Per-tile BD bit cost (all channels), shape ``(n_tiles,)``.

    ``bits = sum_channels (8 + 4 + pixels * w_channel)`` — Eq. 5-6 plus
    the width metadata field.
    """
    widths = delta_widths(tiles_srgb8)
    pixels_per_tile = tiles_srgb8.shape[1]
    per_channel_overhead = BASE_FIELD_BITS + WIDTH_FIELD_BITS
    return 3 * per_channel_overhead + pixels_per_tile * widths.sum(axis=1)


@dataclass(frozen=True)
class OptimizedTiles:
    """Result of the two-axis optimization over a tile stack.

    Attributes
    ----------
    adjusted:
        Winning adjusted tiles in linear RGB, ``(n_tiles, pixels, 3)``.
    adjusted_srgb:
        The same tiles quantized to uint8 sRGB — exactly what the BD
        encoder will see; all bit accounting uses these.
    chosen_axis:
        Per tile, the channel whose adjustment won (values from
        ``axes``).
    case2:
        Per tile, whether the *winning* adjustment hit case 2 (common
        plane, zero-delta channel) — the statistic of paper Fig. 12.
    bits:
        Per-tile BD bit cost of the winning adjustment.
    per_axis:
        The raw :class:`AxisAdjustment` for each candidate axis, kept
        for ablation studies.
    """

    adjusted: np.ndarray
    adjusted_srgb: np.ndarray
    chosen_axis: np.ndarray
    case2: np.ndarray
    bits: np.ndarray
    per_axis: dict[int, AxisAdjustment]


def optimize_tiles(
    tiles_rgb, semi_axes, axes: tuple[int, ...] = (2, 0), case2_placement: str = "mid"
) -> OptimizedTiles:
    """Adjust a tile stack along each candidate axis and keep the best.

    Parameters
    ----------
    tiles_rgb, semi_axes:
        As for :func:`repro.core.adjust.adjust_tiles`.
    axes:
        Candidate channels, in tie-break priority order.  The paper uses
        Blue and Red; the default lists Blue first so ties fall to Blue
        (its ellipsoid axis is typically the longest).  A single-element
        tuple degrades gracefully to fixed-axis operation (used by the
        axis ablation).
    """
    if not axes:
        raise ValueError("need at least one candidate axis")
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate axes in {axes}")

    # One check of the tiles and semi-axes serves every candidate axis.
    tiles, semi_axes = _checked(tiles_rgb, semi_axes, axes, case2_placement)
    per_axis: dict[int, AxisAdjustment] = {}
    srgb_stack = []
    bits_stack = []
    for axis in axes:
        result = _adjust_phases(tiles, semi_axes, axis, case2_placement)
        per_axis[axis] = result
        srgb = encode_srgb8(result.adjusted)
        srgb_stack.append(srgb)
        bits_stack.append(tile_bd_bits(srgb))

    bits_matrix = np.stack(bits_stack, axis=0)  # (n_axes, n_tiles)
    # argmin returns the *first* minimum, so listing Blue first in
    # ``axes`` implements the tie-break.
    winner = bits_matrix.argmin(axis=0)  # (n_tiles,)

    # Gather the winning tiles by masked assignment.  Stacking every
    # candidate into an (n_axes, n_tiles, px, 3) block before indexing
    # would materialize n_axes full copies of the frame's tile stack
    # (twice: linear and sRGB) just to throw most of them away.
    adjusted = per_axis[axes[0]].adjusted.copy()
    adjusted_srgb = srgb_stack[0].copy()
    case2 = per_axis[axes[0]].case2.copy()
    for index in range(1, len(axes)):
        mask = winner == index
        if mask.any():
            adjusted[mask] = per_axis[axes[index]].adjusted[mask]
            adjusted_srgb[mask] = srgb_stack[index][mask]
            case2[mask] = per_axis[axes[index]].case2[mask]
    chosen_axis = np.asarray(axes, dtype=np.int64)[winner]

    return OptimizedTiles(
        adjusted=adjusted,
        adjusted_srgb=adjusted_srgb,
        chosen_axis=chosen_axis,
        case2=case2,
        bits=np.take_along_axis(bits_matrix, winner[None, :], axis=0)[0],
        per_axis=per_axis,
    )
