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
proxy our law's tight thresholds produce a table of ~2^23 colors
(~23 bits/pixel) instead of the paper's 32k (15 bits/pixel); the
deviation is recorded in EXPERIMENTS.md.  Every qualitative conclusion
survives and is in fact strengthened: SCC loses badly to BD, its
tables are far too large for a mobile SoC, and our scheme beats it by
an even wider margin.

:func:`grid_cover` builds the cover: it marches the RGB cube in steps
sized to the inscribed cube of the local JND sphere, so it provably
covers the cube, and it stands in for Chvatal's greedy heuristic, whose
O(candidates x universe) cost puts the full 2^24 colors out of reach.
The experiments use it to size the full-cube table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..color.srgb import linear_to_srgb, srgb_to_linear
from ..perception.geometry import channel_halfwidth
from ..perception.model import DiscriminationModel, default_model

__all__ = [
    "SCCTable",
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


@dataclass(frozen=True)
class SCCTable:
    """A color cover: representative colors plus derived costs.

    ``representatives`` holds normalized sRGB colors; a count-only
    cover (see :func:`grid_cover`) stores an empty array and records
    ``n_representatives`` instead.
    """

    representatives: np.ndarray  # (n, 3) normalized sRGB
    universe_size: int
    n_representatives: int | None = None

    @property
    def size(self) -> int:
        if self.n_representatives is not None:
            return self.n_representatives
        return self.representatives.shape[0]

    @property
    def bits_per_pixel(self) -> int:
        """Index width: ``ceil(log2 |C|)`` bits for every pixel."""
        if self.size < 1:
            raise ValueError("empty cover has no code")
        return max(1, int(np.ceil(np.log2(self.size))))

    @property
    def encode_table_bytes(self) -> int:
        """Size of the color -> index lookup over the universe."""
        index_bytes = max(1, -(-self.bits_per_pixel // 8))
        return self.universe_size * index_bytes

    @property
    def decode_table_bytes(self) -> int:
        """Size of the index -> 24-bit color table."""
        return self.size * 3


def _march(step_samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walk [0, 1] taking locally-sampled steps.

    ``step_samples`` holds the step size at uniformly spaced positions.
    To stay conservative (never over-step a region where the true step
    is smaller) each move uses the minimum of the two samples bracketing
    the current position.  Returns ``(cell_starts, cell_widths)``.
    """
    n = step_samples.shape[0]
    padded = np.minimum(step_samples, np.roll(step_samples, -1))
    padded[-1] = step_samples[-1]
    starts, widths = [], []
    position = 0.0
    while position < 1.0:
        index = min(int(position * (n - 1)), n - 1)
        starts.append(position)
        widths.append(padded[index])
        position += padded[index]
    return np.asarray(starts), np.asarray(widths)


def grid_cover(
    model: DiscriminationModel | None = None,
    eccentricity: float = DEFAULT_SCC_ECCENTRICITY,
    universe_size: int = 1 << 24,
    samples_per_axis: int = 64,
    count_only: bool = False,
) -> SCCTable:
    """Constructive full-cube cover via locally-sized inscribed cubes.

    Marches the sRGB code cube axis by axis taking steps equal to the
    side of the cube inscribed in the local JND sphere (``2 r /
    sqrt(3)``), which guarantees every color of a cell lies within its
    representative's radius.  Representatives are normalized sRGB
    colors.  Step fields are sampled on a uniform grid
    per axis (batched through the model); the marches use the
    conservative bracketing minimum, so the construction remains a
    valid cover with three batched model evaluations total.
    """
    model = model if model is not None else default_model()
    positions = np.linspace(0.0, 1.0, samples_per_axis)
    # Safety margin absorbing the radius variation within a cell (the
    # probes sample the radius at cell corners, not its cell-wide min).
    safety = 0.9

    def steps_at(colors: np.ndarray) -> np.ndarray:
        return safety * 2.0 * jnd_radius(colors, eccentricity, model) / np.sqrt(3.0)

    # The sRGB-space radius is not monotone in the non-marching
    # channels (linear thresholds grow with luminance while the gamma
    # slope shrinks), so each march probes a small cross-section grid
    # in the free channels and keeps the minimum step.
    probe_levels = (0.0, 0.5, 1.0)

    # 1. Blue slabs (free channels: red, green).  All coordinates here
    # are normalized sRGB codes.
    blue_fields = []
    for red_level in probe_levels:
        for green_level in probe_levels:
            probe = np.column_stack(
                [
                    np.full(samples_per_axis, red_level),
                    np.full(samples_per_axis, green_level),
                    positions,
                ]
            )
            blue_fields.append(steps_at(probe))
    blue_starts, blue_widths = _march(np.min(blue_fields, axis=0))

    # 2. Red columns within every blue slab (free channel: green).
    red_fields = []
    for green_level in probe_levels:
        red_probe = np.empty((blue_starts.shape[0], samples_per_axis, 3))
        red_probe[..., 0] = positions
        red_probe[..., 1] = green_level
        red_probe[..., 2] = blue_starts[:, None]
        red_fields.append(steps_at(red_probe))
    red_steps = np.min(red_fields, axis=0)
    cells = []
    for b_index, blue in enumerate(blue_starts):
        red_starts, red_widths = _march(red_steps[b_index])
        for red, red_width in zip(red_starts, red_widths):
            cells.append((red, red_width, blue, blue_widths[b_index]))
    cell_array = np.asarray(cells)

    # 3. Green runs within every (red, blue) cell (batched across cells).
    green_probe = np.empty((cell_array.shape[0], samples_per_axis, 3))
    green_probe[..., 0] = cell_array[:, 0:1]
    green_probe[..., 1] = positions
    green_probe[..., 2] = cell_array[:, 2:3]
    green_steps = steps_at(green_probe)

    count = 0
    representatives: list[list[float]] = []
    for index, (red, red_width, blue, blue_width) in enumerate(cell_array):
        green_starts, green_widths = _march(green_steps[index])
        count += green_starts.shape[0]
        if not count_only:
            for green, green_width in zip(green_starts, green_widths):
                representatives.append(
                    [
                        min(red + red_width / 2, 1.0),
                        min(green + green_width / 2, 1.0),
                        min(blue + blue_width / 2, 1.0),
                    ]
                )
    return SCCTable(
        representatives=np.asarray(representatives, dtype=np.float64).reshape(-1, 3),
        universe_size=universe_size,
        n_representatives=count if count_only else None,
    )


_GRID_COVER_CACHE: dict[tuple[float, int], SCCTable] = {}


def scc_bits_per_pixel(
    eccentricity: float = DEFAULT_SCC_ECCENTRICITY,
    model: DiscriminationModel | None = None,
) -> int:
    """Bits per pixel of the full-cube SCC table (cached).

    This is the constant per-pixel cost the SCC series of Fig. 10 pays
    regardless of content — SCC has no spatial redundancy stage.
    """
    key = (float(eccentricity), id(model) if model is not None else 0)
    if key not in _GRID_COVER_CACHE:
        _GRID_COVER_CACHE[key] = grid_cover(
            model=model, eccentricity=eccentricity, count_only=True
        )
    return _GRID_COVER_CACHE[key].bits_per_pixel
