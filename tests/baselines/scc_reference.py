"""The per-cell SCC grid cover, as a Python loop (test oracle).

:func:`grid_cover` and :func:`_march` are the construction the package
ran before it counted cells in lockstep: one ``while`` loop per march
row and one tuple per cell, with an optional list of representative
colors.  :func:`repro.baselines.scc.grid_cover` must return this
cover's size exactly.

:func:`cell_bounds` walks the same marches but follows, for each
color, only the blue slab, red column and green run that contain it,
so a test can check the cover's guarantee cell by cell without
building every cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.scc import DEFAULT_SCC_ECCENTRICITY, jnd_radius
from repro.perception.model import DiscriminationModel, default_model


@dataclass(frozen=True)
class SCCTable:
    """A color cover: representative colors, or only their count.

    ``representatives`` holds normalized sRGB colors; a count-only
    cover stores an empty array and records ``n_representatives``.
    """

    representatives: np.ndarray  # (n, 3) normalized sRGB
    universe_size: int
    n_representatives: int | None = None

    @property
    def size(self) -> int:
        if self.n_representatives is not None:
            return self.n_representatives
        return self.representatives.shape[0]


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


def cell_bounds(
    colors: np.ndarray, samples_per_axis: int = 64
) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, widths)`` of the :func:`grid_cover` cell holding each color.

    Runs :func:`grid_cover`'s blue and red marches (the same probes and
    step fields), then, for each color, the green march of the one
    column that holds it.  Both outputs are ``(n, 3)`` in RGB order;
    the cell is ``starts <= color < starts + widths`` channel by
    channel, and its representative is ``min(starts + widths / 2, 1)``.
    """
    model = default_model()
    positions = np.linspace(0.0, 1.0, samples_per_axis)

    def steps_at(probe: np.ndarray) -> np.ndarray:
        return 0.9 * 2.0 * jnd_radius(probe, DEFAULT_SCC_ECCENTRICITY, model) / np.sqrt(3.0)

    def holding(starts: np.ndarray, value: float) -> int:
        return int(np.searchsorted(starts, value, side="right")) - 1

    probe_levels = (0.0, 0.5, 1.0)
    blue_fields = [
        steps_at(
            np.column_stack(
                [
                    np.full(samples_per_axis, red_level),
                    np.full(samples_per_axis, green_level),
                    positions,
                ]
            )
        )
        for red_level in probe_levels
        for green_level in probe_levels
    ]
    blue_starts, blue_widths = _march(np.min(blue_fields, axis=0))
    red_fields = []
    for green_level in probe_levels:
        red_probe = np.empty((blue_starts.shape[0], samples_per_axis, 3))
        red_probe[..., 0] = positions
        red_probe[..., 1] = green_level
        red_probe[..., 2] = blue_starts[:, None]
        red_fields.append(steps_at(red_probe))
    red_steps = np.min(red_fields, axis=0)

    colors = np.asarray(colors, dtype=np.float64)
    starts = np.empty(colors.shape)
    widths = np.empty(colors.shape)
    for index, (red, green, blue) in enumerate(colors):
        b_index = holding(blue_starts, blue)
        red_starts, red_widths = _march(red_steps[b_index])
        r_index = holding(red_starts, red)
        green_probe = np.empty((1, samples_per_axis, 3))
        green_probe[..., 0] = red_starts[r_index]
        green_probe[..., 1] = positions
        green_probe[..., 2] = blue_starts[b_index]
        green_starts, green_widths = _march(steps_at(green_probe)[0])
        g_index = holding(green_starts, green)
        starts[index] = red_starts[r_index], green_starts[g_index], blue_starts[b_index]
        widths[index] = red_widths[r_index], green_widths[g_index], blue_widths[b_index]
    return starts, widths
