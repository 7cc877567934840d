"""Reference oracles: the encoder kernels before their pixel-major rewrite.

These are the Base+Delta plan, the per-tile color adjustment (with its
channel extrema and gamut clamp) and the two-axis optimizer exactly as
they stood before the package's kernels were rewritten to skip work
their outputs do not need:

* ``_plan`` reduces the middle axis of the ``(n_tiles, pixels, 3)``
  stack (the package reduces a pixel-major copy);
* ``adjust_tiles`` builds every channel's extrema through
  ``channel_extrema`` (the package builds only the optimized
  channel's);
* ``_clamp_to_gamut`` computes a scale for every pixel (the package
  rescales only the pixels whose move leaves the unit cube);
* ``case2_plane`` is the HL/LH reduction the package's adjustment now
  takes inline;
* ``_extrema_vectors``, ``mahalanobis``, ``_squared_mahalanobis`` and
  ``relative_luminance`` take their color products stacked,
  ``(tiles, pixels, 3) @ (3, 3)``, which NumPy runs as one BLAS call
  per tile (the package runs the same rows as flat ``(rows, 3)``
  products, ``repro.color.utils._color_product``).

The per-pixel forms the package now runs as per-channel passes are
kept here as they stood before that rewrite, each in NumPy's slower
form:

* ``law`` is ``ParametricEllipsoidLaw.__call__``, with its channel sum
  ``colors.sum(axis=-1)`` and its ``np.maximum`` over all three axes;
* ``foveal_pin`` is the perceptual codec's ``np.where`` pin of the
  foveal pixels' semi-axes;
* ``_squared_mahalanobis`` is the audit's squared distance, summed with
  ``sum(axis=-1)``;
* ``_adjust_phases`` is the adjustment's body with the HL/LH reduced
  along each tile's pixels, an ``np.where`` target and step and a move
  broadcast along the color axis.

Each function body is unchanged, except that ``adjust_tiles`` no longer
fills the per-tile spans ``AxisAdjustment`` dropped, ``law`` reads its
parameters from an argument rather than ``self`` and ``_adjust_phases``
takes its extrema vectors from ``_extrema_vectors`` below; only the
imports point at this module, so the oracle chain never reaches a
rewritten kernel.  ``tests/core/test_kernel_oracle.py`` holds the
package's kernels equal to these byte for byte, ``test_color_products.py``
the flat products and the per-pixel forms, and ``pipeline_reference.py``
builds the frame pipeline oracle on them.
"""

from __future__ import annotations

import numpy as np

from repro.color.dkl import DKL_TO_RGB, RGB_TO_DKL
from repro.color.srgb import encode_srgb8
from repro.core.adjust import CASE2_PLACEMENTS, AxisAdjustment
from repro.core.optimizer import OptimizedTiles
from repro.encoding.accounting import SizeBreakdown
from repro.encoding.bd import (
    _WIDTH_LUT,
    BASE_FIELD_BITS,
    WIDTH_FIELD_BITS,
    _breakdown,
    _validate_tiles,
)
from repro.color.utils import _LUMA_WEIGHTS, ensure_color_array
from repro.perception.geometry import ChannelExtrema, _validate
from repro.perception.law import EllipsoidLawParameters, ParametricEllipsoidLaw

__all__ = [
    "_plan",
    "delta_widths",
    "bd_breakdown",
    "relative_luminance",
    "law",
    "foveal_pin",
    "_extrema_vectors",
    "channel_extrema",
    "mahalanobis",
    "_squared_mahalanobis",
    "case2_plane",
    "_clamp_to_gamut",
    "adjust_tiles",
    "_adjust_phases",
    "tile_bd_bits",
    "optimize_tiles",
]

_CHANNELS = (0, 1, 2)


# -- repro.encoding.bd ------------------------------------------------------


def _plan(arr: np.ndarray, group_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Tile bases ``(n_tiles, 3)`` and group widths ``(n_tiles, n_groups, 3)``.

    Deltas are taken against the *tile* base (the per-channel minimum)
    whatever the group size, so a group's width is that of its maximum
    minus the tile minimum.
    """
    n_tiles, pixels = arr.shape[0], arr.shape[1]
    bases = arr.min(axis=1)
    group_max = arr.reshape(n_tiles, pixels // group_size, group_size, 3).max(axis=2)
    return bases, _WIDTH_LUT[group_max - bases[:, None, :]]


def delta_widths(tiles) -> np.ndarray:
    """Per-tile per-channel delta bit widths, shape ``(n_tiles, 3)``."""
    arr = _validate_tiles(tiles)
    return _plan(arr, arr.shape[1])[1][:, 0]


def bd_breakdown(tiles, n_pixels: int | None = None) -> SizeBreakdown:
    """Vectorized BD bit accounting for a tile stack."""
    arr = _validate_tiles(tiles)
    return _breakdown(_plan(arr, arr.shape[1])[1], arr.shape[1], n_pixels)


# -- repro.color.utils ------------------------------------------------------


def relative_luminance(rgb) -> np.ndarray:
    """Relative luminance of linear-RGB colors (Rec. 709 weights)."""
    arr = ensure_color_array(rgb, "rgb")
    return arr @ _LUMA_WEIGHTS


# -- repro.perception.law ---------------------------------------------------


def law(params: EllipsoidLawParameters, rgb, eccentricity_deg) -> np.ndarray:
    """``ParametricEllipsoidLaw(params)(rgb, eccentricity_deg)``."""
    colors = ensure_color_array(rgb, "rgb")
    ecc = np.asarray(eccentricity_deg, dtype=np.float64)
    if ecc.size and ecc.min() < 0:
        raise ValueError("eccentricity must be non-negative degrees")
    p = params
    ecc = np.clip(ecc, 0.0, p.max_eccentricity)

    lum = relative_luminance(colors)
    lum_factor = np.clip(
        p.luminance_floor + p.luminance_gain * lum,
        p.luminance_floor,
        p.luminance_floor + p.luminance_gain,
    )
    chromatic = p.base_scale * (1.0 + p.eccentricity_gain * ecc) * lum_factor

    total = colors.sum(axis=-1)
    redness = np.divide(
        colors[..., 0],
        total,
        out=np.full(total.shape, 1.0 / 3.0),
        where=total > 1e-12,
    )
    red_ratio = p.red_axis_base + p.red_axis_gain * redness

    axes = np.empty(colors.shape, dtype=np.float64)
    axes[..., 0] = red_ratio * chromatic
    axes[..., 1] = chromatic
    axes[..., 2] = chromatic
    return np.maximum(axes, ParametricEllipsoidLaw.MIN_SEMI_AXIS)


# -- repro.codecs.wrappers --------------------------------------------------


def foveal_pin(semi_axes, foveal: np.ndarray) -> np.ndarray:
    """The model's semi-axes with every foveal pixel's pinned to the minimum."""
    return np.where(foveal[..., None], ParametricEllipsoidLaw.MIN_SEMI_AXIS, semi_axes)


# -- repro.perception.geometry ----------------------------------------------


def _extrema_vectors(centers, semi_axes, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated centers and the extrema vector of each ellipsoid along ``axis``."""
    if axis not in _CHANNELS:
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    c, s = _validate(centers, semi_axes)
    row = DKL_TO_RGB[axis]
    weighted = np.square(s)
    weighted *= row  # diag(s^2) B^T e_k, batched
    halfwidth = np.sqrt(weighted @ row)
    displacement = weighted @ DKL_TO_RGB.T  # B @ weighted per pixel
    displacement /= halfwidth[..., None]
    return c, displacement


def mahalanobis(points, centers, semi_axes) -> np.ndarray:
    """Ellipsoid-normalized distance of RGB points from ellipsoid centers."""
    p = np.asarray(points, dtype=np.float64)
    c, s = _validate(centers, semi_axes)
    delta_dkl = (p - c) @ RGB_TO_DKL.T
    return np.sqrt(np.sum(np.square(delta_dkl / s), axis=-1))


def _squared_mahalanobis(points: np.ndarray, centers: np.ndarray, semi_axes: np.ndarray):
    """Squared :func:`mahalanobis` distances of already-checked float64 arrays."""
    delta_dkl = (points - centers) @ RGB_TO_DKL.T
    delta_dkl /= semi_axes
    np.square(delta_dkl, out=delta_dkl)
    return delta_dkl.sum(axis=-1)


def channel_extrema(centers, semi_axes, axis: int) -> ChannelExtrema:
    """Highest and lowest ellipsoid points along an RGB channel.

    Uses the Lagrange closed form ``displacement = Q^{-1} e_k /
    sqrt(e_k^T Q^{-1} e_k)``; with ``Q^{-1} = B diag(s^2) B^T`` this
    costs one scaled matmul per batch — no per-pixel solves.  The
    displacement's own ``axis`` component equals the channel half-width
    exactly, a property the unit tests rely on.
    """
    if axis not in _CHANNELS:
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    c, s = _validate(centers, semi_axes)
    row = DKL_TO_RGB[axis]
    weighted = np.square(s) * row  # diag(s^2) B^T e_k, batched
    unnormalized = weighted @ DKL_TO_RGB.T  # B @ weighted per pixel
    halfwidth = np.sqrt(weighted @ row)
    displacement = unnormalized / halfwidth[..., None]
    return ChannelExtrema(
        low=c - displacement, high=c + displacement, displacement=displacement, axis=axis
    )


# -- repro.core.adjust ------------------------------------------------------


def case2_plane(low_channel: np.ndarray, high_channel: np.ndarray) -> tuple:
    """Compute HL, LH and the case-2 mask from per-pixel channel extrema.

    Parameters are ``(n_tiles, pixels)`` arrays of the lowest/highest
    reachable channel values.  Returns ``(HL, LH, case2)`` with per-tile
    shapes.
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
    """
    delta = moved - centers
    with np.errstate(divide="ignore", invalid="ignore"):
        scale_high = np.where(moved > 1.0, (1.0 - centers) / delta, 1.0)
        scale_low = np.where(moved < 0.0, -centers / delta, 1.0)
    scale = np.clip(np.minimum(scale_high, scale_low).min(axis=-1), 0.0, 1.0)
    return centers + scale[..., None] * delta


def adjust_tiles(
    tiles_rgb, semi_axes, axis: int, case2_placement: str = "mid"
) -> AxisAdjustment:
    """Run the analytical color adjustment on a stack of tiles."""
    if case2_placement not in CASE2_PLACEMENTS:
        raise ValueError(
            f"case2_placement must be one of {CASE2_PLACEMENTS}, got {case2_placement!r}"
        )
    tiles = np.asarray(tiles_rgb, dtype=np.float64)
    if tiles.ndim != 3 or tiles.shape[2] != 3:
        raise ValueError(f"tiles_rgb must be (n_tiles, pixels, 3), got {tiles.shape}")
    if tiles.size and (tiles.min() < 0.0 or tiles.max() > 1.0):
        raise ValueError("tiles_rgb must be linear RGB in [0, 1]")

    extrema = channel_extrema(tiles, semi_axes, axis)
    z = tiles[..., axis]
    low = extrema.low[..., axis]
    high = extrema.high[..., axis]

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
    moved = tiles + step[..., None] * extrema.displacement
    adjusted = _clamp_to_gamut(tiles, moved)

    return AxisAdjustment(adjusted=adjusted, case2=case2, axis=axis)


def _identity(values: np.ndarray) -> np.ndarray:
    return values


def _adjust_phases(
    tiles: np.ndarray,
    semi_axes: np.ndarray,
    axis: int,
    case2_placement: str,
    quantize=_identity,
) -> AxisAdjustment:
    """The body of ``adjust_tiles``, phase by phase, on checked inputs."""
    # Compute Extrema.  Only the optimized channel's extrema are needed;
    # the extrema vector itself is needed in full, since moves follow it.
    displacement = quantize(_extrema_vectors(tiles, semi_axes, axis)[1])
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


# -- repro.core.optimizer ---------------------------------------------------


def tile_bd_bits(tiles_srgb8: np.ndarray) -> np.ndarray:
    """Per-tile BD bit cost (all channels), shape ``(n_tiles,)``."""
    widths = delta_widths(tiles_srgb8)
    pixels_per_tile = tiles_srgb8.shape[1]
    per_channel_overhead = BASE_FIELD_BITS + WIDTH_FIELD_BITS
    return 3 * per_channel_overhead + pixels_per_tile * widths.sum(axis=1)


def optimize_tiles(
    tiles_rgb, semi_axes, axes: tuple[int, ...] = (2, 0), case2_placement: str = "mid"
) -> OptimizedTiles:
    """Adjust a tile stack along each candidate axis and keep the best."""
    if not axes:
        raise ValueError("need at least one candidate axis")
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate axes in {axes}")

    per_axis: dict[int, AxisAdjustment] = {}
    srgb_stack = []
    bits_stack = []
    for axis in axes:
        result = adjust_tiles(tiles_rgb, semi_axes, axis, case2_placement=case2_placement)
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
