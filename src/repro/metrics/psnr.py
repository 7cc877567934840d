"""Objective image-quality metrics (paper Sec. 6.3).

The paper reports PSNR of the compressed frames to make a point: the
scheme is *subjectively* clean while scoring poorly on objective
metrics (mean 46 dB with huge variance, most scenes below 37 dB —
normally "visible artifacts" territory).  We implement PSNR over
8-bit sRGB frames, per frame and per channel.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mse", "psnr"]


def _validate_pair(reference, test) -> tuple[np.ndarray, np.ndarray]:
    ref = np.asarray(reference)
    tst = np.asarray(test)
    if ref.shape != tst.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {tst.shape}")
    if ref.size == 0:
        raise ValueError("empty images")
    return ref.astype(np.float64), tst.astype(np.float64)


def mse(reference, test) -> float:
    """Mean squared error between two equal-shape images."""
    ref, tst = _validate_pair(reference, test)
    return float(np.mean(np.square(ref - tst)))


def psnr(reference, test, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB.

    Identical images return ``inf`` (they have no noise floor); the
    paper's two very-high-PSNR scenes are near this regime.
    """
    if peak <= 0:
        raise ValueError(f"peak must be positive, got {peak}")
    error = mse(reference, test)
    if error == 0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / error))


def _psnr_per_channel(reference, test, peak: float = 255.0) -> np.ndarray:
    """PSNR of each color channel separately, shape ``(C,)``."""
    ref, tst = _validate_pair(reference, test)
    if ref.ndim != 3:
        raise ValueError(f"expected (H, W, C) images, got shape {ref.shape}")
    out = np.empty(ref.shape[2])
    for channel in range(ref.shape[2]):
        out[channel] = psnr(ref[..., channel], tst[..., channel], peak=peak)
    return out
