"""Small color utilities shared across the library.

Hex-code parsing (used to reproduce the paper's Fig. 1 demonstration),
relative luminance, shape validation helpers for color arrays, and the
flat matrix product that every per-pixel color transform runs on.
"""

from __future__ import annotations

import re

import numpy as np

from .srgb import srgb_to_linear

__all__ = [
    "parse_hex",
    "relative_luminance",
    "ensure_color_array",
]

_HEX_RE = re.compile(r"^#?([0-9a-fA-F]{6})$")

#: Rec. 709 / sRGB luminance weights for linear RGB.
_LUMA_WEIGHTS = np.array([0.2126, 0.7152, 0.0722], dtype=np.float64)

#: Most rows one flat color product takes.  OpenBLAS keeps a product
#: this size on one thread; a ``(262144, 3) @ (3, 3)`` product spreads
#: over threads and at times stalls for 100 ms (docs/performance.md).
_PRODUCT_ROWS = 16_384


def _color_product(colors: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``colors @ matrix`` for ``(..., 3)`` colors, run as flat row products.

    NumPy runs a stacked ``(tiles, pixels, 3)`` product as one BLAS call
    per tile.  This multiplies the same rows as ``(rows, 3)`` products
    over slices of at most :data:`_PRODUCT_ROWS` rows, balanced so that
    no slice is a single row, and returns the same bytes.  Two shapes
    keep NumPy's own product: a lone color, and a stack of 1-pixel
    tiles, whose per-tile products take a vector path that rounds
    differently from the flat one.  Slices of two or more rows take a
    C-ordered ``matrix`` (a transpose is F-ordered), which OpenBLAS
    multiplies about three times faster with the same bytes; one row
    keeps the operand as given, since that product's bytes depend on it.
    """
    if colors.ndim < 2 or (colors.ndim > 2 and colors.shape[-2] == 1):
        return colors @ matrix
    rows = colors.reshape(-1, 3)
    n_rows = rows.shape[0]
    if n_rows > 1:
        matrix = np.ascontiguousarray(matrix)
    n_slices = max(1, -(-n_rows // _PRODUCT_ROWS))
    size = max(1, -(-n_rows // n_slices))
    product = np.empty((n_rows,) + matrix.shape[1:])
    for start in range(0, n_rows, size):
        np.matmul(rows[start : start + size], matrix, out=product[start : start + size])
    return product.reshape(colors.shape[:-1] + matrix.shape[1:])


def parse_hex(code: str) -> np.ndarray:
    """Parse an sRGB hex code like ``#F06077`` into linear RGB floats.

    The hex digits are 8-bit *sRGB* codes, so the gamma is removed to
    return a linear-RGB 3-vector in ``[0, 1]``.
    """
    match = _HEX_RE.match(code.strip())
    if match is None:
        raise ValueError(f"not a valid 6-digit hex color: {code!r}")
    digits = match.group(1)
    srgb8 = np.array([int(digits[i : i + 2], 16) for i in (0, 2, 4)], dtype=np.float64)
    return srgb_to_linear(srgb8 / 255.0)


def relative_luminance(rgb) -> np.ndarray:
    """Relative luminance of linear-RGB colors (Rec. 709 weights).

    Used by the perception model to modulate discrimination thresholds
    with brightness, and by the scene generator to report scene
    statistics.  Works on any array with a trailing axis of size 3.
    """
    return _color_product(ensure_color_array(rgb, "rgb"), _LUMA_WEIGHTS)


def ensure_color_array(colors, name: str = "colors") -> np.ndarray:
    """Validate and coerce an array of 3-channel colors to float64."""
    arr = np.asarray(colors, dtype=np.float64)
    if arr.shape[-1] != 3:
        raise ValueError(f"{name} must have a trailing axis of size 3, got {arr.shape}")
    return arr
