"""Per-tile color adjustment along one channel (paper Sec. 3.3, Fig. 6).

Given a tile of pixels and their discrimination ellipsoids, the
analytical solution of the relaxed problem (Eq. 8c) squeezes the chosen
channel's values into the smallest interval reachable without any pixel
leaving its ellipsoid.  With per-pixel channel extrema ``L_i``/``H_i``
(lowest/highest reachable channel value), define

    HL = max_i L_i   ("highest of the lows")
    LH = min_i H_i   ("lowest of the highs")

* **Case 1** (``HL > LH``): no plane crosses every ellipsoid.  The
  minimum achievable span is ``HL - LH``; it is attained by clamping
  every channel value into ``[LH, HL]``.
* **Case 2** (``HL <= LH``): every plane with channel value in
  ``[HL, LH]`` crosses all ellipsoids; all pixels move onto the mean
  plane ``(HL + LH) / 2`` and the channel needs zero delta bits.

Movement is along each pixel's *extrema vector* (center to channel
extremum).  Along that line the channel value varies linearly and spans
exactly ``[L_i, H_i]`` while staying inside the ellipsoid, so reaching a
target channel value ``z*`` means taking the step ``(z* - z_i) /
(H_i - z_i)`` of the displacement — central symmetry makes one
denominator serve both directions.

A final gamut clamp scales any move back toward the center until the
result lies in the unit RGB cube; scaling toward the center can never
exit the ellipsoid, so the perceptual constraint survives the clamp.
"""
# repro: kernel-module

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perception.geometry import _extrema_vectors

__all__ = ["CASE2_PLACEMENTS", "AxisAdjustment", "adjust_tiles", "case2_plane"]


@dataclass(frozen=True)
class AxisAdjustment:
    """Outcome of adjusting a tile stack along one channel.

    Attributes
    ----------
    adjusted:
        Adjusted linear-RGB tiles, same shape as the input
        ``(n_tiles, pixels, 3)``.
    case2:
        Boolean per tile; True where a common plane existed (Fig. 6b).
    span_before, span_after:
        Channel value span (max - min) per tile before and after, in
        linear RGB.  ``span_after`` is measured on the *clamped* result.
    axis:
        The channel that was optimized (0=R, 1=G, 2=B).
    """

    adjusted: np.ndarray
    case2: np.ndarray
    span_before: np.ndarray
    span_after: np.ndarray
    axis: int


def case2_plane(low_channel: np.ndarray, high_channel: np.ndarray) -> tuple:
    """Compute HL, LH and the case-2 mask from per-pixel channel extrema.

    Parameters are ``(n_tiles, pixels)`` arrays of the lowest/highest
    reachable channel values.  Returns ``(HL, LH, case2)`` with per-tile
    shapes.  Exposed separately because the hardware model mirrors this
    reduction stage (the CAU's comparator trees).
    """
    if low_channel.shape != high_channel.shape or low_channel.ndim != 2:
        raise ValueError(
            f"expected matching (n_tiles, pixels) arrays, got "
            f"{low_channel.shape} and {high_channel.shape}"
        )
    hl = low_channel.max(axis=1)
    lh = high_channel.min(axis=1)
    return hl, lh, lh >= hl


def _clamp_to_gamut(centers: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """Scale each move toward its center until the result is in [0,1]^3.

    The scale factor is the largest ``m in [0, 1]`` with ``c + m*(p - c)``
    inside the unit cube, computed per channel and combined with a min.
    Because the center is always in gamut and scaling toward the center
    stays inside the (convex) ellipsoid, the clamp preserves both
    constraints.

    A pixel whose move stays in the cube has scale 1, so every pixel
    first takes ``c + (p - c)``; real frames rarely leave the cube, and
    only the pixels that do are gathered and rescaled.  ``centers`` and
    ``moved`` must have the same shape.
    """
    delta = moved - centers
    outside = (moved > 1.0) | (moved < 0.0)
    leaves = np.nonzero(outside[..., 0] | outside[..., 1] | outside[..., 2])
    c, d, p = centers[leaves], delta[leaves], moved[leaves]
    with np.errstate(divide="ignore", invalid="ignore"):
        scale_high = np.where(p > 1.0, (1.0 - c) / d, 1.0)
        scale_low = np.where(p < 0.0, -c / d, 1.0)
    scale = np.clip(np.minimum(scale_high, scale_low).min(axis=-1), 0.0, 1.0)
    clamped = np.add(centers, delta, out=delta)
    clamped[leaves] = c + scale[:, None] * d
    return clamped


def _span(channel: np.ndarray) -> np.ndarray:
    """Per-tile ``max - min`` of an ``(n_tiles, pixels)`` channel.

    Reduced over a pixel-major copy, as the Base+Delta plan does: the
    leading axis of ``(pixels, n_tiles)`` reduces as one elementwise
    min or max per pixel, where the short strided pixel axis of the
    tile stack costs about three times as much.
    """
    by_pixel = np.ascontiguousarray(channel.T)
    return by_pixel.max(axis=0) - by_pixel.min(axis=0)


#: Valid case-2 plane placements: the paper uses the HL/LH mean.
CASE2_PLACEMENTS = ("mid", "hl", "lh")


def adjust_tiles(
    tiles_rgb, semi_axes, axis: int, case2_placement: str = "mid"
) -> AxisAdjustment:
    """Run the analytical color adjustment on a stack of tiles.

    Parameters
    ----------
    tiles_rgb:
        Linear-RGB tiles, shape ``(n_tiles, pixels_per_tile, 3)``,
        values in ``[0, 1]``.
    semi_axes:
        DKL-space discrimination semi-axes per pixel, same shape.
        Foveal (bypassed) pixels are expressed with near-zero semi-axes,
        which pins them in place and correctly *constrains* the rest of
        their tile through HL/LH.
    axis:
        Channel to minimize (0=R or 2=B in the paper; 1=G is allowed
        and useful for ablations).
    case2_placement:
        Where to put the common plane in case 2: ``"mid"`` (the HL/LH
        average, the paper's choice), ``"hl"`` or ``"lh"`` (either
        extreme; exposed for the plane-placement ablation).  All three
        achieve zero span along ``axis``; they differ in how far the
        *other* channels drift.
    """
    if case2_placement not in CASE2_PLACEMENTS:
        raise ValueError(
            f"case2_placement must be one of {CASE2_PLACEMENTS}, got {case2_placement!r}"
        )
    tiles = np.asarray(tiles_rgb, dtype=np.float64)
    if tiles.ndim != 3 or tiles.shape[2] != 3:
        raise ValueError(f"tiles_rgb must be (n_tiles, pixels, 3), got {tiles.shape}")
    if tiles.size and (tiles.min() < 0.0 or tiles.max() > 1.0):
        raise ValueError("tiles_rgb must be linear RGB in [0, 1]")

    # Only the optimized channel's extrema are needed; the extrema vector
    # itself is needed in full, since moves follow it.
    centers, displacement = _extrema_vectors(tiles, semi_axes, axis)
    z = tiles[..., axis]
    low = centers[..., axis] - displacement[..., axis]
    high = centers[..., axis] + displacement[..., axis]

    hl, lh, case2 = case2_plane(low, high)
    if case2_placement == "mid":
        plane = 0.5 * (hl + lh)
    elif case2_placement == "hl":
        plane = hl
    else:  # "lh"
        plane = lh
    # Case 1 target: clamp into [LH, HL]; case 2 target: the common plane.
    target = np.where(
        case2[:, None],
        plane[:, None],
        np.clip(z, lh[:, None], hl[:, None]),
    )

    halfwidth = high - z  # equals z - low by central symmetry
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(halfwidth > 0, (target - z) / halfwidth, 0.0)
    # |step| <= 1 holds analytically; enforce against float round-off.
    np.clip(step, -1.0, 1.0, out=step)
    moved = tiles + step[..., None] * displacement
    adjusted = _clamp_to_gamut(centers, moved)

    return AxisAdjustment(
        adjusted=adjusted,
        case2=case2,
        span_before=_span(z),
        span_after=_span(adjusted[..., axis]),
        axis=axis,
    )
