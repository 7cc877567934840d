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


def _clipped_copy(values, name: str) -> np.ndarray:
    """``values`` clipped to ``[0, 1]`` in a new float64 buffer.

    The transfer functions compute in place in this buffer.  It is
    never the caller's array, which :func:`_as_float_array` may return
    as is, and a 0-d input gives a 0-d array, not a scalar.
    """
    arr = _as_float_array(values, name)
    return np.clip(arr, 0.0, 1.0, out=np.empty_like(arr))


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

    Notes
    -----
    One output buffer, no full-size temporaries: the linear segment's
    values are set aside, the power segment runs in place over the
    whole buffer, and the set-aside values are written back.  Each
    value sees the same operations, in the same order, as the two
    branch functions do.
    """
    x = _clipped_copy(linear, "linear")
    low = x <= LINEAR_THRESHOLD
    low_values = 12.92 * x[low]
    np.power(x, 1.0 / 2.4, out=x)
    x *= 1.055
    x -= 0.055
    x[low] = low_values
    return x


def srgb_to_linear(srgb) -> np.ndarray:
    """Invert :func:`linear_to_srgb` (continuous, un-quantized form).

    Computed in one buffer, as :func:`linear_to_srgb` is.
    """
    s = _clipped_copy(srgb, "srgb")
    low = s <= SRGB_THRESHOLD
    low_values = s[low] / 12.92
    s += 0.055
    s /= 1.055
    np.power(s, 2.4, out=s)
    s[low] = low_values
    return s


def encode_srgb8(linear) -> np.ndarray:
    """Gamma-encode linear RGB and quantize to 8-bit codes.

    This is the paper's ``f_s2r`` (Eq. 1) scaled to the 0..255 code range:
    the non-linear transfer followed by rounding to the nearest integer
    code.  Rounding (rather than a strict floor on the scaled value) is
    what real framebuffer hardware does, and it maps each code's linear
    value ``srgb_to_linear(code / 255)`` back to that code.

    Returns
    -------
    numpy.ndarray of uint8
        A NumPy ``uint8`` scalar for a scalar input.
    """
    encoded = linear_to_srgb(linear)
    encoded *= 255.0
    np.round(encoded, out=encoded)
    np.clip(encoded, 0, 255, out=encoded)
    codes = encoded.astype(np.uint8)
    return codes[()] if codes.ndim == 0 else codes
