"""Built-in codecs: every existing coster behind the unified interface.

Each class adapts one of the repo's frame costers to the ``Codec``
contract over a shared :class:`~repro.codecs.context.FrameContext`:

* ``nocom`` (alias ``raw``) — uncompressed 24 bpp framebuffer;
* ``scc`` — Set-Cover Coding's constant index width;
* ``bd`` — fixed-width Base+Delta accounting;
* ``png`` — PNG-class filter+DEFLATE lossless coding;
* ``perceptual`` — the paper's color adjustment in front of BD (its
  result, :class:`~repro.core.pipeline.FrameResult`, *is* an
  :class:`~repro.codecs.base.EncodedFrame`);
* ``variable-bd`` — footnote 1's per-group delta widths;
* ``temporal-bd`` — inter-frame BD choosing spatial vs temporal deltas
  per tile-channel (stateful: ``reset()``, then one ``encode(ctx)`` per
  frame in display order).

Each codec is configured by its constructor.  Codecs that operate on
sRGB tiles pull them from the context cache, so running several of
them over one frame quantizes and tiles it once.
"""

from __future__ import annotations

from ..baselines.png_codec import png_compressed_bits
from ..baselines.scc import DEFAULT_SCC_ECCENTRICITY, scc_bits_per_pixel
from ..encoding.accounting import SizeBreakdown
from ..encoding.bd import bd_breakdown, bd_stream_bytes
from ..encoding.bd_temporal import TemporalBDAccountant
from ..encoding.bd_variable import (
    VariableBDCodec,
    variable_bd_breakdown,
    variable_bd_stream_bytes,
)
from .base import Codec, EncodedFrame
from .context import FrameContext
from .registry import register

__all__ = [
    "NoComCodec",
    "SCCCodec",
    "BDCostCodec",
    "PNGCostCodec",
    "PerceptualCodec",
    "VariableBDCostCodec",
    "TemporalBDCodec",
]


@register("nocom", aliases=("raw",), streaming="raw")
class NoComCodec(Codec):
    """Uncompressed framebuffer: 24 bits per pixel, no transform."""

    def encode(self, ctx: FrameContext) -> EncodedFrame:
        """Cost the frame at a flat 24 bits per pixel."""
        breakdown = SizeBreakdown.uncompressed(ctx.n_pixels)
        return EncodedFrame(
            codec=self.name,
            total_bits=breakdown.total_bits,
            n_pixels=ctx.n_pixels,
            breakdown=breakdown,
        )


@register("bd", streaming="bd")
class BDCostCodec(Codec):
    """Fixed-width Base+Delta on the frame as-is (the BD baseline).

    By default this is pure accounting (the experiments only need
    sizes).  With ``payload=True`` the encode also emits the real
    bitstream — serialized by the vectorized kernels of
    :mod:`repro.encoding.packing` from the context's cached tile stack
    — as ``metadata["payload"]``, decodable with
    :class:`repro.encoding.bd.BDCodec`.
    """

    def __init__(self, tile_size: int = 4, payload: bool = False):
        if tile_size < 1:
            raise ValueError(f"tile_size must be >= 1, got {tile_size}")
        self.tile_size = tile_size
        self.payload = payload

    def encode(self, ctx: FrameContext) -> EncodedFrame:
        """Cost the frame under fixed-width Base+Delta tiling."""
        tiles, grid = ctx.tiles(self.tile_size)
        breakdown = bd_breakdown(tiles, n_pixels=ctx.n_pixels)
        metadata = {"tile_size": self.tile_size}
        if self.payload:
            metadata["payload"] = bd_stream_bytes(tiles, grid)
        return EncodedFrame(
            codec=self.name,
            total_bits=breakdown.total_bits,
            n_pixels=ctx.n_pixels,
            breakdown=breakdown,
            metadata=metadata,
        )


@register("png")
class PNGCostCodec(Codec):
    """PNG-class lossless coding (adaptive filters + DEFLATE)."""

    def __init__(self, level: int = 6):
        if not 0 <= level <= 9:
            raise ValueError(f"DEFLATE level must be in [0, 9], got {level}")
        self.level = level

    def encode(self, ctx: FrameContext) -> EncodedFrame:
        """Cost the frame as PNG filter+DEFLATE output bits."""
        bits = png_compressed_bits(ctx.srgb8, level=self.level)
        return EncodedFrame(
            codec=self.name,
            total_bits=bits,
            n_pixels=ctx.n_pixels,
            metadata={"level": self.level},
        )


@register("scc")
class SCCCodec(Codec):
    """Set-Cover Coding: constant table-index width per pixel."""

    def __init__(self, eccentricity: float = DEFAULT_SCC_ECCENTRICITY, model=None):
        self.eccentricity = float(eccentricity)
        self.model = model

    def encode(self, ctx: FrameContext) -> EncodedFrame:
        """Cost the frame at SCC's constant per-pixel index width."""
        bpp = scc_bits_per_pixel(self.eccentricity, model=self.model)
        return EncodedFrame(
            codec=self.name,
            total_bits=bpp * ctx.n_pixels,
            n_pixels=ctx.n_pixels,
            metadata={"bits_per_pixel": bpp, "table_eccentricity": self.eccentricity},
        )


@register("perceptual", streaming="perceptual")
class PerceptualCodec(Codec):
    """The paper's perceptual color adjustment in front of Base+Delta.

    Wraps a :class:`~repro.core.pipeline.PerceptualEncoder` (``encoder``,
    or a default one when ``None``) and returns its
    :class:`~repro.core.pipeline.FrameResult` directly — ``FrameResult``
    subclasses :class:`~repro.codecs.base.EncodedFrame`.
    """

    gaze_contingent = True

    def __init__(self, encoder=None):
        # Imported here: core.pipeline itself imports codecs.base.
        from ..core.pipeline import PerceptualEncoder

        self.encoder = encoder if encoder is not None else PerceptualEncoder()

    def encode(self, ctx: FrameContext) -> EncodedFrame:
        """Adjust colors perceptually, then cost the frame under BD."""
        return self.encoder.encode_frame(ctx.frame_linear, ctx.eccentricity)


@register("variable-bd", aliases=("varbd",), streaming="variable-bd")
class VariableBDCostCodec(Codec):
    """Variable-width Base+Delta (footnote 1): per-group delta widths.

    As with :class:`BDCostCodec`, ``payload=True`` additionally emits
    the real bitstream (vectorized) as ``metadata["payload"]``,
    decodable with :class:`repro.encoding.bd_variable.VariableBDCodec`.
    """

    def __init__(self, tile_size: int = 4, group_size: int = 4, payload: bool = False):
        # The bitstream codec's constructor rejects sizes no stream can use.
        VariableBDCodec(tile_size, group_size)
        self.tile_size = tile_size
        self.group_size = group_size
        self.payload = payload

    def encode(self, ctx: FrameContext) -> EncodedFrame:
        """Cost the frame under per-group variable-width Base+Delta."""
        tiles, grid = ctx.tiles(self.tile_size)
        breakdown = variable_bd_breakdown(tiles, self.group_size, n_pixels=ctx.n_pixels)
        metadata = {"tile_size": self.tile_size, "group_size": self.group_size}
        if self.payload:
            metadata["payload"] = variable_bd_stream_bytes(tiles, grid, self.group_size)
        return EncodedFrame(
            codec=self.name,
            total_bits=breakdown.total_bits,
            n_pixels=ctx.n_pixels,
            breakdown=breakdown,
            metadata=metadata,
        )


@register("temporal-bd", aliases=("tbd",))
class TemporalBDCodec(Codec):
    """Inter-frame BD: spatial vs previous-frame deltas per tile-channel.

    Stateful across :meth:`encode` calls — :meth:`reset`, then feed it
    one stream of frames in display order.  Call :meth:`reset` on a
    scene cut.
    """

    stateful = True

    def __init__(self, tile_size: int = 4):
        if tile_size < 1:
            raise ValueError(f"tile_size must be >= 1, got {tile_size}")
        self.tile_size = tile_size
        self._accountant = TemporalBDAccountant()

    def encode(self, ctx: FrameContext) -> EncodedFrame:
        """Cost the frame against spatial *and* previous-frame deltas."""
        tiles, _grid = ctx.tiles(self.tile_size)
        breakdown = self._accountant.push(tiles, n_pixels=ctx.n_pixels)
        return EncodedFrame(
            codec=self.name,
            total_bits=breakdown.total_bits,
            n_pixels=ctx.n_pixels,
            breakdown=breakdown,
            metadata={"tile_size": self.tile_size},
        )

    def reset(self) -> None:
        """Forget the previous frame (call on a scene cut)."""
        self._accountant = TemporalBDAccountant()
