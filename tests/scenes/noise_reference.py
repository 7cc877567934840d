"""Reference oracle: the value-noise upsampler before its row-first rewrite.

``_bilinear_upsample`` gathered the four lattice corners of every output
pixel with ``np.ix_``, four full-size gathers, and blended them
horizontally and then vertically.  The package blends each lattice row
horizontally once and then gathers the output rows; the arithmetic per
pixel is the same.  This is the old function, its body unchanged;
``tests/scenes/test_noise.py`` holds the package's equal to it byte for
byte.
"""

from __future__ import annotations

import numpy as np

__all__ = ["_bilinear_upsample"]


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
    top = lattice[np.ix_(y0, x0)] * (1 - fx) + lattice[np.ix_(y0, x1)] * fx
    bottom = lattice[np.ix_(y1, x0)] * (1 - fx) + lattice[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bottom * fy
