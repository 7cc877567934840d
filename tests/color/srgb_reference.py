"""The sRGB transfer functions as both branches and a select (test oracle).

Each function computes the linear and the power branch over the whole
array and picks per element with ``np.where``, as the package did
before it computed in one buffer.  ``tests/color/test_srgb.py`` holds
:mod:`repro.color.srgb` byte-equal to these, dtype and shape included.
"""

from __future__ import annotations

import numpy as np

from repro.color.srgb import LINEAR_THRESHOLD, SRGB_THRESHOLD, _as_float_array


def linear_to_srgb_select(linear) -> np.ndarray:
    x = np.clip(_as_float_array(linear, "linear"), 0.0, 1.0)
    low = 12.92 * x
    high = 1.055 * np.power(x, 1.0 / 2.4, where=x > 0, out=np.zeros_like(x)) - 0.055
    return np.where(x <= LINEAR_THRESHOLD, low, high)


def srgb_to_linear_select(srgb) -> np.ndarray:
    s = np.clip(_as_float_array(srgb, "srgb"), 0.0, 1.0)
    low = s / 12.92
    high = np.power((s + 0.055) / 1.055, 2.4)
    return np.where(s <= SRGB_THRESHOLD, low, high)


def encode_srgb8_select(linear) -> np.ndarray:
    encoded = linear_to_srgb_select(linear)
    return np.clip(np.round(encoded * 255.0), 0, 255).astype(np.uint8)
