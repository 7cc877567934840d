"""Color spaces used by the perceptual encoder.

Three representations appear in the paper and are mirrored here:

* **linear RGB** — what the renderer produces; floats in ``[0, 1]``.
* **sRGB** — gamma-encoded 8-bit codes; the domain where Base+Delta bit
  encoding happens (paper Eq. 1).
* **DKL** — the opponent space in which discrimination ellipsoids are
  axis-aligned; a linear transform away from linear RGB (paper Eq. 2).
"""

from .dkl import DKL_TO_RGB, RGB_TO_DKL, dkl_to_rgb, rgb_to_dkl
from .srgb import (
    LINEAR_THRESHOLD,
    SRGB_THRESHOLD,
    decode_srgb8,
    encode_srgb8,
    linear_to_srgb,
    srgb_to_linear,
)
from .utils import ensure_color_array, parse_hex, relative_luminance

__all__ = [
    "DKL_TO_RGB",
    "RGB_TO_DKL",
    "dkl_to_rgb",
    "rgb_to_dkl",
    "LINEAR_THRESHOLD",
    "SRGB_THRESHOLD",
    "decode_srgb8",
    "encode_srgb8",
    "linear_to_srgb",
    "srgb_to_linear",
    "ensure_color_array",
    "parse_hex",
    "relative_luminance",
]
