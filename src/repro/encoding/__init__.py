"""Base+Delta framebuffer compression substrate (paper Sec. 2.2).

Tiling, NumPy-vectorized bit packing kernels, the BD codec itself
(bit-exact round trip; one grouped stream format, of which fixed-width
BD is the one-group case), and the size accounting every experiment
reports.
"""

from .accounting import UNCOMPRESSED_BPP, SizeBreakdown
from .bd import (
    BASE_FIELD_BITS,
    HEADER_BITS,
    WIDTH_FIELD_BITS,
    BDCodec,
    bd_breakdown,
    bd_stream_bytes,
    delta_widths,
)
from .bd_temporal import MODE_FIELD_BITS, TemporalBDAccountant, temporal_delta_widths
from .bd_variable import (
    VariableBDCodec,
    VariableEncodedFrame,
    group_delta_widths,
    variable_bd_breakdown,
    variable_bd_stream_bytes,
)
from .packing import (
    bits_to_bytes,
    bytes_to_bits,
    gather_field_runs,
    gather_fields,
    pack_fields,
    pack_segments,
    scatter_field_runs,
    scatter_fields,
    sliding_field_values,
    unpack_fields,
    unpack_segments,
)
from .tiling import TileGrid, tile_frame, tile_scalar_field, untile_frame

__all__ = [
    "UNCOMPRESSED_BPP",
    "SizeBreakdown",
    "BASE_FIELD_BITS",
    "HEADER_BITS",
    "WIDTH_FIELD_BITS",
    "BDCodec",
    "bd_breakdown",
    "bd_stream_bytes",
    "delta_widths",
    "MODE_FIELD_BITS",
    "TemporalBDAccountant",
    "temporal_delta_widths",
    "VariableBDCodec",
    "VariableEncodedFrame",
    "group_delta_widths",
    "variable_bd_breakdown",
    "variable_bd_stream_bytes",
    "bits_to_bytes",
    "bytes_to_bits",
    "gather_field_runs",
    "gather_fields",
    "pack_fields",
    "pack_segments",
    "scatter_field_runs",
    "scatter_fields",
    "sliding_field_values",
    "unpack_fields",
    "unpack_segments",
    "TileGrid",
    "tile_frame",
    "tile_scalar_field",
    "untile_frame",
]
