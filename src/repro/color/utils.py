"""Small color utilities shared across the library.

Hex-code parsing (used to reproduce the paper's Fig. 1 demonstration),
relative luminance, and shape validation helpers for color arrays.
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
    arr = ensure_color_array(rgb, "rgb")
    return arr @ _LUMA_WEIGHTS


def ensure_color_array(colors, name: str = "colors") -> np.ndarray:
    """Validate and coerce an array of 3-channel colors to float64."""
    arr = np.asarray(colors, dtype=np.float64)
    if arr.shape[-1] != 3:
        raise ValueError(f"{name} must have a trailing axis of size 3, got {arr.shape}")
    return arr
