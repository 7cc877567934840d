"""The paper's primary contribution: perceptual color adjustment.

Analytical per-tile adjustment (Fig. 6 two-case geometry) and the R/B
axis optimizer.  The frame pipeline that puts them in front of
Base+Delta is the ``perceptual`` codec,
:class:`~repro.codecs.wrappers.PerceptualCodec`.
"""

from .adjust import CASE2_PLACEMENTS, AxisAdjustment, adjust_tiles
from .optimizer import OptimizedTiles, optimize_tiles, tile_bd_bits

__all__ = [
    "CASE2_PLACEMENTS",
    "AxisAdjustment",
    "adjust_tiles",
    "OptimizedTiles",
    "optimize_tiles",
    "tile_bd_bits",
]
