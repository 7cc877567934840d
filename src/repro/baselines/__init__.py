"""Comparison baselines: NoCom, BD, PNG-class lossless, SCC, and the
foveated-resolution comparator of the paper's Sec. 7."""

from .foveated import FoveationConfig, foveated_bd_bits

from .png_codec import (
    PNGEncoded,
    png_compressed_bits,
    png_decode,
    png_encode,
    png_filter_rows,
    png_unfilter_rows,
)
from .scc import (
    DEFAULT_SCC_ECCENTRICITY,
    SCCTable,
    greedy_set_cover,
    grid_cover,
    scc_bits_per_pixel,
)

__all__ = [
    "FoveationConfig",
    "foveated_bd_bits",
    "PNGEncoded",
    "png_compressed_bits",
    "png_decode",
    "png_encode",
    "png_filter_rows",
    "png_unfilter_rows",
    "DEFAULT_SCC_ECCENTRICITY",
    "SCCTable",
    "greedy_set_cover",
    "grid_cover",
    "scc_bits_per_pixel",
]
