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

The kernel runs as the CAU's processing element does (paper Sec. 4.2),
in three phases: Compute Extrema, Compute Planes and Color Shift.  The
fixed-point CAU model (:mod:`repro.hardware.datapath`) runs the same
phases with a quantizer at their boundaries.
"""
# repro: kernel-module

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perception.geometry import _check_axis, _extrema_vectors, _validate

__all__ = ["CASE2_PLACEMENTS", "AxisAdjustment", "adjust_tiles"]


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
    axis:
        The channel that was optimized (0=R, 1=G, 2=B).
    """

    adjusted: np.ndarray
    case2: np.ndarray
    axis: int


def _clamp_to_gamut(centers: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """Scale each move toward its center until the result is in [0,1]^3.

    The scale factor is the largest ``m in [0, 1]`` with ``c + m*(p - c)``
    inside the unit cube, computed per channel and combined with a min.
    Because the center is always in gamut and scaling toward the center
    stays inside the (convex) ellipsoid, the clamp preserves both
    constraints.

    A pixel whose move stays in the cube has scale 1, so every pixel
    first takes ``c + (p - c)``; real frames rarely leave the cube, so
    the out-of-cube mask is built only when ``moved`` leaves it, and
    only the pixels that do are gathered and rescaled.  ``moved`` is
    consumed: the delta and then the clamped result are built in its
    buffer.  ``centers`` and ``moved`` must have the same shape.
    """
    leaves = None
    # Written so that NaN takes the masked path, as any value outside would.
    if moved.size and not (moved.min() >= 0.0 and moved.max() <= 1.0):
        outside = (moved > 1.0) | (moved < 0.0)
        leaves = np.nonzero(outside[..., 0] | outside[..., 1] | outside[..., 2])
        c, p = centers[leaves], moved[leaves]
    clamped = np.add(centers, np.subtract(moved, centers, out=moved), out=moved)
    if leaves is not None:
        d = p - c  # the gathered deltas: the same subtraction as above
        with np.errstate(divide="ignore", invalid="ignore"):
            scale_high = np.where(p > 1.0, (1.0 - c) / d, 1.0)
            scale_low = np.where(p < 0.0, -c / d, 1.0)
        scale = np.clip(np.minimum(scale_high, scale_low).min(axis=-1), 0.0, 1.0)
        clamped[leaves] = c + scale[:, None] * d
    return clamped


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
    tiles, semi_axes = _checked(tiles_rgb, semi_axes, (axis,), case2_placement)
    return _adjust_phases(tiles, semi_axes, axis, case2_placement)


def _checked(
    tiles_rgb, semi_axes, axes: tuple[int, ...], case2_placement: str
) -> tuple[np.ndarray, np.ndarray]:
    """Tiles and semi-axes as float64 arrays of one shape, once checked.

    Checks, in this order, the case-2 placement, the tiles' shape and
    ``[0, 1]`` range, every candidate axis and the semi-axes, so a
    caller that adjusts several axes
    (:func:`~repro.core.optimizer.optimize_tiles`) checks its inputs
    once for all of them.
    """
    if case2_placement not in CASE2_PLACEMENTS:
        raise ValueError(
            f"case2_placement must be one of {CASE2_PLACEMENTS}, got {case2_placement!r}"
        )
    tiles = np.asarray(tiles_rgb, dtype=np.float64)
    if tiles.ndim != 3 or tiles.shape[2] != 3:
        raise ValueError(f"tiles_rgb must be (n_tiles, pixels, 3), got {tiles.shape}")
    # Written so that NaN fails it: every comparison with NaN is False.
    if tiles.size and not (tiles.min() >= 0.0 and tiles.max() <= 1.0):
        raise ValueError("tiles_rgb must be linear RGB in [0, 1]")
    for axis in axes:
        _check_axis(axis)
    return _validate(tiles, semi_axes)


def _identity(values: np.ndarray) -> np.ndarray:
    return values


def _adjust_phases(
    tiles: np.ndarray,
    semi_axes: np.ndarray,
    axis: int,
    case2_placement: str,
    quantize=_identity,
) -> AxisAdjustment:
    """The body of :func:`adjust_tiles`, phase by phase, on checked inputs.

    ``tiles`` and ``semi_axes`` come from :func:`_checked`.
    ``quantize`` maps every value that crosses a phase boundary:
    Compute Extrema hands on the extrema vector and the channel's
    low/high, Compute Planes the plane, and Color Shift ends in the
    target, the step and the clamped output.  :func:`adjust_tiles`
    passes the identity; the fixed-point CAU model passes its ``Q2.f``
    quantizer.  HL, LH and the case flags are comparisons of values
    already quantized, so they need no quantizer of their own.
    """
    # Compute Extrema.  Only the optimized channel's extrema are needed;
    # the extrema vector itself is needed in full, since moves follow it.
    displacement = quantize(_extrema_vectors(semi_axes, axis))
    z = tiles[..., axis]
    low = quantize(z - displacement[..., axis])
    high = quantize(z + displacement[..., axis])

    # Compute Planes: the comparator trees.
    hl = low.max(axis=1)
    lh = high.min(axis=1)
    case2 = lh >= hl
    if case2_placement == "mid":
        plane = 0.5 * (hl + lh)
    elif case2_placement == "hl":
        plane = hl
    else:  # "lh"
        plane = lh
    plane = quantize(plane)

    # Color Shift.  Case 1 target: clamp into [LH, HL]; case 2 target:
    # the common plane.
    target = quantize(
        np.where(case2[:, None], plane[:, None], np.clip(z, lh[:, None], hl[:, None]))
    )
    halfwidth = high - z  # equals z - low by central symmetry
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(halfwidth > 0, (target - z) / halfwidth, 0.0)
    # |step| <= 1 holds analytically; enforce against float round-off.
    np.clip(step, -1.0, 1.0, out=step)
    step = quantize(step)
    # The move, its delta and the clamped output share one buffer: the
    # extrema vector's, which nothing reads after this.
    moved = np.multiply(displacement, step[..., None], out=displacement)
    moved += tiles
    adjusted = quantize(_clamp_to_gamut(tiles, moved))

    return AxisAdjustment(adjusted=adjusted, case2=case2, axis=axis)
