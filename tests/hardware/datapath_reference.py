"""Reference oracle: the fixed-point CAU model as a fork of the kernel.

Before the fixed-point model ran the encoder's own adjustment phases, it
re-implemented them stage by stage with ``quantize_fixed`` between the
stages.  This is that fork, its body unchanged: it builds all three
channels' extrema through ``channel_extrema``, reduces HL/LH through
``case2_plane``, rescales every pixel in its gamut clamp, and divides
the Color Shift step by the quantized half-width itself.

``tests/hardware/test_datapath_oracle.py`` holds
:func:`repro.hardware.datapath.adjust_tiles_fixed_point` equal to it,
byte for byte in every field, wherever no quantized Compute-Extrema
value reaches the ``Q2.f`` rails.
"""

from __future__ import annotations

import numpy as np

from repro.core.adjust import AxisAdjustment
from repro.hardware.datapath import FixedPointSpec, quantize_fixed
from repro.perception.geometry import channel_extrema

__all__ = ["case2_plane", "adjust_tiles_fixed_point"]


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


def adjust_tiles_fixed_point(
    tiles_rgb, semi_axes, axis: int, spec: FixedPointSpec | None = None
) -> AxisAdjustment:
    """Run the Fig. 6 adjustment through a quantized datapath.

    Mirrors :func:`repro.core.adjust.adjust_tiles` stage by stage,
    quantizing every value that crosses a pipeline-stage boundary:

    1. **Compute Extrema** — per-pixel extrema displacement and channel
       half-width (outputs of the divider/sqrt block);
    2. **Compute Planes** — HL and LH from the comparator trees
       (comparisons are exact; the compared values are already on the
       grid);
    3. **Color Shift** — the move ratio (output of the divider) and the
       shifted colors.

    The ellipsoid *inputs* are taken at full precision: the paper's PE
    receives them from the GPU's RBF evaluation, whose own precision is
    a separate (upstream) concern.
    """
    spec = spec or FixedPointSpec()
    tiles = quantize_fixed(np.asarray(tiles_rgb, dtype=np.float64), spec)
    tiles = np.clip(tiles, 0.0, 1.0)

    # Phase 1: Compute Extrema.
    extrema = channel_extrema(tiles, semi_axes, axis)
    displacement = quantize_fixed(extrema.displacement, spec)
    halfwidth = quantize_fixed(extrema.displacement[..., axis], spec)

    z = tiles[..., axis]
    low = quantize_fixed(z - halfwidth, spec)
    high = quantize_fixed(z + halfwidth, spec)

    # Phase 2: Compute Planes (reduction trees).
    hl, lh, case2 = case2_plane(low, high)
    plane = quantize_fixed(0.5 * (hl + lh), spec)

    # Phase 3: Color Shift.
    target = np.where(
        case2[:, None], plane[:, None], np.clip(z, lh[:, None], hl[:, None])
    )
    target = quantize_fixed(target, spec)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(halfwidth > 0, (target - z) / halfwidth, 0.0)
    step = quantize_fixed(np.clip(step, -1.0, 1.0), spec)
    moved = tiles + step[..., None] * displacement
    # Gamut clamp, as in the reference (pure comparisons + one multiply).
    delta = moved - tiles
    with np.errstate(divide="ignore", invalid="ignore"):
        scale_high = np.where(moved > 1.0, (1.0 - tiles) / delta, 1.0)
        scale_low = np.where(moved < 0.0, -tiles / delta, 1.0)
    scale = np.clip(np.minimum(scale_high, scale_low).min(axis=-1), 0.0, 1.0)
    adjusted = quantize_fixed(tiles + scale[..., None] * delta, spec)
    adjusted = np.clip(adjusted, 0.0, 1.0)

    return AxisAdjustment(adjusted=adjusted, case2=case2, axis=axis)
