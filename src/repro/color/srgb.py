"""Linear-RGB <-> sRGB gamma transfer functions (paper Eq. 1).

The rendering pipeline produces colors in *linear RGB*, three floating
point channels in ``[0, 1]``.  For output encoding each channel is passed
through the standard sRGB opto-electronic transfer function ("gamma
encoding") and quantized to an 8-bit integer in ``[0, 255]``.  The paper's
``f_s2r`` (its Eq. 1) is exactly this transfer function followed by the
floor to an integer code; we expose both the continuous transfer function
and the quantizing variant because the encoder needs the former for
analysis and the latter for bit accounting.

All functions are vectorized over arbitrary-shaped numpy arrays and are
exact inverses of each other up to quantization.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LINEAR_THRESHOLD",
    "SRGB_THRESHOLD",
    "linear_to_srgb",
    "srgb_to_linear",
    "encode_srgb8",
    "decode_srgb8",
]

#: Linear-domain breakpoint below which the sRGB curve is linear.
#:
#: This is the exact crossover of the two branch functions — the root of
#: ``12.92 x = 1.055 x^(1/2.4) - 0.055`` — rather than the rounded
#: ``0.0031308`` the sRGB spec prints.  With the rounded constant the
#: linear branch overshoots the power branch at the seam, making the
#: transfer function non-monotonic there and breaking exact round trips
#: through :func:`srgb_to_linear` for values near 0.04045.
LINEAR_THRESHOLD = 0.003130668442500634

#: sRGB-domain image of :data:`LINEAR_THRESHOLD` (12.92 * threshold).
SRGB_THRESHOLD = 12.92 * LINEAR_THRESHOLD


def _as_float_array(values, name: str) -> np.ndarray:
    """Coerce ``values`` to a float64 array, rejecting non-numeric input."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got non-finite entries")
    return arr


def linear_to_srgb(linear) -> np.ndarray:
    """Apply the continuous sRGB transfer function to linear values.

    Parameters
    ----------
    linear:
        Array-like of linear-RGB channel values.  Values are clipped to
        ``[0, 1]`` before the transfer, mirroring display hardware which
        saturates out-of-gamut values.

    Returns
    -------
    numpy.ndarray
        sRGB-encoded values in ``[0, 1]`` (not yet quantized).
    """
    x = np.clip(_as_float_array(linear, "linear"), 0.0, 1.0)
    low = 12.92 * x
    high = 1.055 * np.power(x, 1.0 / 2.4, where=x > 0, out=np.zeros_like(x)) - 0.055
    return np.where(x <= LINEAR_THRESHOLD, low, high)


def srgb_to_linear(srgb) -> np.ndarray:
    """Invert :func:`linear_to_srgb` (continuous, un-quantized form)."""
    s = np.clip(_as_float_array(srgb, "srgb"), 0.0, 1.0)
    low = s / 12.92
    high = np.power((s + 0.055) / 1.055, 2.4)
    return np.where(s <= SRGB_THRESHOLD, low, high)


def encode_srgb8(linear) -> np.ndarray:
    """Gamma-encode linear RGB and quantize to 8-bit codes.

    This is the paper's ``f_s2r`` (Eq. 1) scaled to the 0..255 code range:
    the non-linear transfer followed by rounding to the nearest integer
    code.  Rounding (rather than a strict floor on the scaled value) is
    what real framebuffer hardware does and keeps the function an exact
    inverse of :func:`decode_srgb8` on code points.

    Returns
    -------
    numpy.ndarray of uint8
    """
    encoded = linear_to_srgb(linear)
    return np.clip(np.round(encoded * 255.0), 0, 255).astype(np.uint8)


def decode_srgb8(codes) -> np.ndarray:
    """Map 8-bit sRGB codes back to linear RGB floats in ``[0, 1]``."""
    codes = np.asarray(codes)
    if codes.dtype.kind not in "iu":
        raise TypeError(f"sRGB codes must be integers, got dtype {codes.dtype}")
    if codes.size and (codes.min() < 0 or codes.max() > 255):
        raise ValueError("sRGB codes must lie in [0, 255]")
    return srgb_to_linear(codes.astype(np.float64) / 255.0)


def _quantize_unit(values, levels: int = 256) -> np.ndarray:
    """Quantize ``[0, 1]`` floats onto a uniform grid of ``levels`` codes.

    Utility used by baselines that quantize in spaces other than sRGB.
    """
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    arr = np.clip(_as_float_array(values, "values"), 0.0, 1.0)
    return np.round(arr * (levels - 1)) / (levels - 1)
