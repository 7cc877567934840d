"""The paper's primary contribution: perceptual color adjustment.

Analytical per-tile adjustment (Fig. 6 two-case geometry), the R/B axis
optimizer, and the frame pipeline in front of Base+Delta.
"""

from .adjust import CASE2_PLACEMENTS, AxisAdjustment, adjust_tiles, case2_plane
from .optimizer import OptimizedTiles, optimize_tiles, tile_bd_bits
from .pipeline import DEFAULT_FOVEAL_RADIUS_DEG, FrameResult, PerceptualEncoder

__all__ = [
    "CASE2_PLACEMENTS",
    "AxisAdjustment",
    "adjust_tiles",
    "case2_plane",
    "OptimizedTiles",
    "optimize_tiles",
    "tile_bd_bits",
    "DEFAULT_FOVEAL_RADIUS_DEG",
    "FrameResult",
    "PerceptualEncoder",
]
