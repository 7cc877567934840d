"""Procedural value-noise textures for the scene generator.

Pure-numpy multi-octave value noise: random lattices upsampled with
bilinear interpolation and summed with decaying amplitude.  This is the
texture primitive every synthetic scene builds on — it produces the
smooth-but-textured local statistics that framebuffer content has,
which is what Base+Delta compression responds to.
"""

from __future__ import annotations

import numpy as np

__all__ = ["value_noise", "fractal_noise"]


def _bilinear_upsample(lattice: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Bilinearly resample a 2-D lattice to ``shape``."""
    height, width = shape
    lat_h, lat_w = lattice.shape
    # Sample positions in lattice coordinates, endpoints inclusive.
    ys = np.linspace(0.0, lat_h - 1.0, height)
    xs = np.linspace(0.0, lat_w - 1.0, width)
    y0 = np.clip(ys.astype(np.int64), 0, lat_h - 2) if lat_h > 1 else np.zeros(height, np.int64)
    x0 = np.clip(xs.astype(np.int64), 0, lat_w - 2) if lat_w > 1 else np.zeros(width, np.int64)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    y1 = np.minimum(y0 + 1, lat_h - 1)
    x1 = np.minimum(x0 + 1, lat_w - 1)
    # Blend each lattice row horizontally once, then pick the rows.
    rows = lattice[:, x0] * (1 - fx) + lattice[:, x1] * fx
    return rows[y0] * (1 - fy) + rows[y1] * fy


def value_noise(shape: tuple[int, int], cell: int, rng: np.random.Generator) -> np.ndarray:
    """Single-octave value noise in ``[0, 1]``.

    Parameters
    ----------
    shape:
        Output ``(height, width)``.
    cell:
        Approximate feature size in pixels; the random lattice has one
        node per ``cell`` pixels.
    rng:
        Source of randomness (callers own the seed for determinism).
    """
    if cell < 1:
        raise ValueError(f"cell must be >= 1, got {cell}")
    height, width = shape
    if height < 1 or width < 1:
        raise ValueError(f"shape must be positive, got {shape}")
    lat_h = max(2, -(-height // cell) + 1)
    lat_w = max(2, -(-width // cell) + 1)
    lattice = rng.random((lat_h, lat_w))
    return _bilinear_upsample(lattice, (height, width))


def fractal_noise(
    shape: tuple[int, int],
    cell: int,
    rng: np.random.Generator,
    octaves: int = 4,
    persistence: float = 0.5,
) -> np.ndarray:
    """Multi-octave value noise, normalized to ``[0, 1]``.

    Each octave halves the feature size and multiplies the amplitude by
    ``persistence``; the sum is rescaled to the unit interval.
    """
    if octaves < 1:
        raise ValueError(f"octaves must be >= 1, got {octaves}")
    if not 0 < persistence <= 1:
        raise ValueError(f"persistence must be in (0, 1], got {persistence}")
    total = np.zeros(shape, dtype=np.float64)
    amplitude = 1.0
    amplitude_sum = 0.0
    for octave in range(octaves):
        octave_cell = max(1, cell >> octave)
        total += amplitude * value_noise(shape, octave_cell, rng)
        amplitude_sum += amplitude
        amplitude *= persistence
    return total / amplitude_sum
