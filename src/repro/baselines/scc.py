"""Set-Cover Coding (SCC) baseline (paper Sec. 5.3).

SCC exploits color discrimination differently from the paper's scheme:
find the smallest subset ``C`` of sRGB colors whose discrimination
regions jointly cover the whole color cube, then encode every pixel as
an index into ``C`` — ``ceil(log2 |C|)`` bits per pixel.  Set cover is
NP-complete, so the paper uses Chvatal's greedy heuristic; the
resulting tables (30 MB encode / 96 KB decode in the paper) are far too
large for a DRAM-path codec, which is the point of the baseline.

**Substitution note.**  Under our conservative parametric law the
RGB-space discrimination ellipsoids are extreme "pancakes": the
near-singular DKL matrix maps the two chromatic axes onto almost the
same RGB direction, leaving a residual direction where the ellipsoid is
only ~1e-5 wide.  Taken literally, *no* color cover smaller than the
universe exists (each ellipsoid's volume is below one 24-bit color
cell) — SCC would be impossible, when the paper's fitted model yields a
32k-color cover.  SCC here therefore uses an explicit **isotropic JND
proxy**: a sphere in *sRGB code space* whose radius is the geometric
mean of the three gamma-space channel half-widths, floored at one
8-bit code step (the display quantization floor).  Even with this
proxy our law's tight thresholds give a cover of 7,317,184 cells
(23 bits/pixel) where the paper's model gives 32k colors (15
bits/pixel).  Every qualitative conclusion survives and is in fact
strengthened: SCC loses badly to BD, its tables are far too large for
a mobile SoC, and our scheme beats it by an even wider margin.

:func:`grid_cover` counts the cells of the cover: it marches the RGB
cube in steps sized to the inscribed cube of the local JND sphere, so
the cells provably cover the cube, and it stands in for Chvatal's
greedy heuristic, whose O(candidates x universe) cost puts the full
2^24 colors out of reach.  Fig. 10 reads only the count, so no cell or
representative color is ever stored.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..color.srgb import linear_to_srgb, srgb_to_linear
from ..perception.geometry import channel_halfwidth
from ..perception.model import DiscriminationModel, default_model

__all__ = [
    "jnd_radius",
    "grid_cover",
    "scc_bits_per_pixel",
    "DEFAULT_SCC_ECCENTRICITY",
]

#: Default eccentricity at which SCC builds its table.  SCC is a single
#: global table, so it must pick one operating point; we use the far
#: mid-periphery (the largest ellipsoids a wide-FoV display commonly
#: shows) to be maximally generous to the baseline.
DEFAULT_SCC_ECCENTRICITY = 40.0

#: Radius floor: one 8-bit sRGB code step (the display cannot express
#: finer differences).
RADIUS_FLOOR = 1.0 / 255.0

#: Red columns whose green runs are probed and counted together; it
#: bounds the probe arrays to a few MB whatever the cover's size.
_GREEN_BATCH = 2048


def jnd_radius(
    srgb_colors,
    eccentricity: float = DEFAULT_SCC_ECCENTRICITY,
    model: DiscriminationModel | None = None,
) -> np.ndarray:
    """Isotropic JND proxy radius per color, in normalized sRGB units.

    SCC indexes *sRGB* codes (the paper maps each 24-bit sRGB color),
    so the proxy lives in gamma space: each linear-RGB channel
    half-width of the discrimination ellipsoid is pushed through the
    local slope of the sRGB transfer, and the radius is the geometric
    mean of the three, floored at one code step.  See the module
    docstring for why SCC needs this isotropization.
    """
    model = model if model is not None else default_model()
    srgb = np.asarray(srgb_colors, dtype=np.float64)
    if srgb.shape[-1] != 3:
        raise ValueError(f"colors must have trailing axis 3, got {srgb.shape}")
    linear = srgb_to_linear(srgb)
    axes = model.semi_axes(linear, np.full(srgb.shape[:-1], float(eccentricity)))
    halfwidths = np.stack(
        [channel_halfwidth(axes, channel) for channel in range(3)], axis=-1
    )
    # Gamma-space image of the half-width at each channel's own level.
    srgb_halfwidths = linear_to_srgb(np.clip(linear + halfwidths, 0, 1)) - srgb
    srgb_halfwidths = np.maximum(srgb_halfwidths, 1e-6)
    return np.maximum(
        np.exp(np.log(srgb_halfwidths).mean(axis=-1)), RADIUS_FLOOR
    )


def _steps_at(probes: np.ndarray) -> np.ndarray:
    """Cell side at each probe: the local JND sphere's inscribed cube.

    The 0.9 safety margin absorbs the radius variation within a cell
    (the probes sample the radius at cell corners, not its cell-wide
    minimum).
    """
    return 0.9 * 2.0 * jnd_radius(probes) / np.sqrt(3.0)


def _march(step_samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walk [0, 1] along every row of ``step_samples`` in lockstep.

    Each row holds the step size at uniformly spaced positions.  To
    stay conservative (never over-step a region where the true step
    is smaller) each move uses the minimum of the two samples
    bracketing the current position.  Returns the row and the start of
    every cell, ordered by step number, then row.
    """
    n = step_samples.shape[1]
    padded = np.minimum(step_samples, np.roll(step_samples, -1, axis=1))
    padded[:, -1] = step_samples[:, -1]
    rows = np.arange(step_samples.shape[0])
    position = np.zeros(rows.shape[0])
    cell_rows, cell_starts = [], []
    while rows.size:
        cell_rows.append(rows)
        cell_starts.append(position)
        index = np.minimum((position * (n - 1)).astype(np.int64), n - 1)
        position = position + padded[rows, index]
        more = position < 1.0
        rows, position = rows[more], position[more]
    return np.concatenate(cell_rows), np.concatenate(cell_starts)


def grid_cover(samples_per_axis: int = 64) -> int:
    """Number of cells in the constructive full-cube cover.

    Marches the sRGB code cube axis by axis — blue slabs, then red
    columns within each slab, then green runs within each column —
    taking steps equal to the side of the cube inscribed in the local
    JND sphere (``2 r / sqrt(3)``), which guarantees every color of a
    cell lies within the radius of the cell's centre.  Step fields are
    sampled on ``samples_per_axis`` uniform positions per axis, and
    the marches use the conservative bracketing minimum, so the cells
    form a valid cover.
    """
    positions = np.linspace(0.0, 1.0, samples_per_axis)
    # The sRGB-space radius is not monotone in the non-marching
    # channels (linear thresholds grow with luminance while the gamma
    # slope shrinks), so the blue and red marches probe a small
    # cross-section grid in their free channels and keep the minimum.
    levels = np.array([0.0, 0.5, 1.0])

    # 1. Blue slabs (free channels: red, green).  All coordinates here
    # are normalized sRGB codes.
    blue_probe = np.empty((levels.size**2, samples_per_axis, 3))
    blue_probe[..., 0] = np.repeat(levels, levels.size)[:, None]
    blue_probe[..., 1] = np.tile(levels, levels.size)[:, None]
    blue_probe[..., 2] = positions
    _, blue_starts = _march(_steps_at(blue_probe).min(axis=0, keepdims=True))

    # 2. Red columns within every blue slab (free channel: green).
    red_probe = np.empty((levels.size, blue_starts.size, samples_per_axis, 3))
    red_probe[..., 0] = positions
    red_probe[..., 1] = levels[:, None, None]
    red_probe[..., 2] = blue_starts[:, None]
    slabs, red_starts = _march(_steps_at(red_probe).min(axis=0))

    # 3. Green runs within every (red, blue) column, counted a batch of
    # columns at a time.
    cells = 0
    for first in range(0, red_starts.size, _GREEN_BATCH):
        columns = slice(first, first + _GREEN_BATCH)
        green_probe = np.empty((red_starts[columns].size, samples_per_axis, 3))
        green_probe[..., 0] = red_starts[columns, None]
        green_probe[..., 1] = positions
        green_probe[..., 2] = blue_starts[slabs[columns], None]
        cells += _march(_steps_at(green_probe))[1].size
    return cells


@functools.cache
def scc_bits_per_pixel() -> int:
    """Bits per pixel of the full-cube SCC index (computed once).

    This is the constant per-pixel cost the SCC series of Fig. 10 pays
    regardless of content — SCC has no spatial redundancy stage.
    """
    return max(1, math.ceil(math.log2(grid_cover())))
