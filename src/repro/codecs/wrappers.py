"""Built-in codecs: every existing coster behind the unified interface.

Each class adapts one of the repo's frame costers to the ``Codec``
contract over a shared :class:`~repro.codecs.context.FrameContext`:

* ``nocom`` (alias ``raw``) — uncompressed 24 bpp framebuffer;
* ``scc`` — Set-Cover Coding's constant index width;
* ``bd`` — fixed-width Base+Delta accounting;
* ``png`` — PNG-class filter+DEFLATE lossless coding;
* ``perceptual`` — the paper's color adjustment in front of BD (its
  result, :class:`FrameResult`, *is* an
  :class:`~repro.codecs.base.EncodedFrame`);
* ``variable-bd`` — footnote 1's per-group delta widths;
* ``temporal-bd`` — inter-frame BD choosing spatial vs temporal deltas
  per tile-channel (stateful: ``reset()``, then one ``encode(ctx)`` per
  frame in display order).

Each codec is configured by its constructor.  Codecs that operate on
sRGB tiles pull them from the context cache, so running several of
them over one frame quantizes and tiles it once; the bd and perceptual
rungs share the context's Base+Delta accounting of the unadjusted frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.png_codec import png_compressed_bits
from ..baselines.scc import DEFAULT_SCC_ECCENTRICITY, scc_bits_per_pixel
from ..core.optimizer import optimize_tiles
from ..encoding.accounting import SizeBreakdown
from ..encoding.bd import _encode, bd_breakdown
from ..encoding.bd_temporal import TemporalBDAccountant
from ..encoding.bd_variable import VariableBDCodec, variable_bd_breakdown
from ..encoding.tiling import TileGrid, tile_scalar_field, untile_frame
from ..perception.geometry import _squared_mahalanobis
from ..perception.law import ParametricEllipsoidLaw
from ..perception.model import DiscriminationModel, default_model
from .base import Codec, EncodedFrame
from .context import FrameContext

__all__ = [
    "NoComCodec",
    "SCCCodec",
    "BDCostCodec",
    "PNGCostCodec",
    "PerceptualCodec",
    "FrameResult",
    "DEFAULT_FOVEAL_RADIUS_DEG",
    "VariableBDCostCodec",
    "TemporalBDCodec",
]


class NoComCodec(Codec):
    """Uncompressed framebuffer: 24 bits per pixel, no transform."""

    name = "nocom"

    def encode(self, ctx: FrameContext) -> EncodedFrame:
        """Cost the frame at a flat 24 bits per pixel."""
        breakdown = SizeBreakdown.uncompressed(ctx.n_pixels)
        return EncodedFrame(
            codec=self.name,
            total_bits=breakdown.total_bits,
            n_pixels=ctx.n_pixels,
            breakdown=breakdown,
        )


class BDCostCodec(Codec):
    """Fixed-width Base+Delta on the frame as-is (the BD baseline).

    By default this is pure accounting (the experiments only need
    sizes).  With ``payload=True`` the encode also emits the real
    bitstream — serialized by the vectorized kernels of
    :mod:`repro.encoding.packing` from the context's cached tile stack
    — as ``metadata["payload"]``, decodable with
    :class:`repro.encoding.bd.BDCodec`.
    """

    name = "bd"

    def __init__(self, tile_size: int = 4, payload: bool = False):
        if tile_size < 1:
            raise ValueError(f"tile_size must be >= 1, got {tile_size}")
        self.tile_size = tile_size
        self.payload = payload

    def encode(self, ctx: FrameContext) -> EncodedFrame:
        """Cost the frame under fixed-width Base+Delta tiling."""
        metadata = {"tile_size": self.tile_size}
        if self.payload:
            tiles, grid = ctx.tiles(self.tile_size)
            metadata["payload"], breakdown = _encode(tiles, grid, grid.pixels_per_tile)
            ctx._shared.breakdowns.setdefault(self.tile_size, breakdown)
        else:
            breakdown = ctx._bd_breakdown(self.tile_size)
        return EncodedFrame(
            codec=self.name,
            total_bits=breakdown.total_bits,
            n_pixels=ctx.n_pixels,
            breakdown=breakdown,
            metadata=metadata,
        )


class PNGCostCodec(Codec):
    """PNG-class lossless coding (adaptive filters + DEFLATE)."""

    name = "png"

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


class SCCCodec(Codec):
    """Set-Cover Coding: constant table-index width per pixel."""

    name = "scc"

    def encode(self, ctx: FrameContext) -> EncodedFrame:
        """Cost the frame at SCC's constant per-pixel index width."""
        bpp = scc_bits_per_pixel()
        return EncodedFrame(
            codec=self.name,
            total_bits=bpp * ctx.n_pixels,
            n_pixels=ctx.n_pixels,
            metadata={"bits_per_pixel": bpp, "table_eccentricity": DEFAULT_SCC_ECCENTRICITY},
        )


#: Radius (deg eccentricity) of the untouched central region, Sec. 5.1.
DEFAULT_FOVEAL_RADIUS_DEG = 10.0


@dataclass(frozen=True, kw_only=True)
class FrameResult(EncodedFrame):
    """Everything produced by encoding one frame perceptually.

    A :class:`~repro.codecs.base.EncodedFrame` (codec ``"perceptual"``)
    carrying the generic fields — ``total_bits``, ``breakdown``, and
    ``reconstruction`` (the adjusted sRGB frame) — plus the
    pipeline-specific diagnostics below.

    Attributes
    ----------
    adjusted_frame:
        Perceptually adjusted frame, linear RGB, original size.
    adjusted_srgb:
        The adjusted frame quantized to uint8 sRGB (what gets BD
        encoded and eventually displayed); also exposed as the generic
        ``reconstruction``.
    original_srgb:
        The unadjusted frame quantized to uint8 sRGB — the baseline BD
        input (the context's ``srgb8``).
    baseline_breakdown:
        BD size accounting for the original frame (the BD baseline);
        the inherited ``breakdown`` accounts the adjusted frame (ours).
    case2_fraction:
        Fraction of tiles whose winning adjustment found a common plane
        (paper Fig. 12's ``c2``).
    axis_fractions:
        Mapping axis -> fraction of tiles won by that axis.
    max_mahalanobis:
        Largest ellipsoid-normalized color shift over all *adjusted*
        (non-foveal) pixels; the perceptual guarantee is ``<= 1`` up to
        quantization.
    grid:
        Tile geometry used.
    """

    adjusted_frame: np.ndarray
    adjusted_srgb: np.ndarray
    original_srgb: np.ndarray
    baseline_breakdown: SizeBreakdown
    case2_fraction: float
    axis_fractions: dict[int, float]
    max_mahalanobis: float
    grid: TileGrid

    @property
    def bandwidth_reduction_vs_uncompressed(self) -> float:
        """Traffic saved vs. raw frames (paper Fig. 10 headline)."""
        return self.breakdown.reduction_vs_uncompressed()

    @property
    def bandwidth_reduction_vs_bd(self) -> float:
        """Traffic saved vs. plain BD on the unadjusted frame."""
        return self.breakdown.reduction_vs(self.baseline_breakdown)


class PerceptualCodec(Codec):
    """The paper's perceptual color adjustment in front of Base+Delta.

    The frame pipeline of the paper's Fig. 7, run on a context's linear
    frame and eccentricity map:

        per-pixel discrimination ellipsoids (Phi)
          -> per-tile color adjustment, best of the candidate axes (the CAU)
          -> sRGB quantization
          -> ordinary Base+Delta accounting

    Pixels inside the *foveal bypass* radius (the paper keeps the
    central 10 degrees untouched, Sec. 5.1) are pinned by giving them
    near-zero semi-axes; they still take part in their tile's HL/LH
    reduction, so mixed fovea/periphery tiles stay correct rather than
    special-cased.  The frame's linear tiles, its sRGB quantization and
    its BD baseline come from the context's cache, so a frame encoded
    under several gazes derives them once.

    Parameters
    ----------
    model:
        Discrimination model ``Phi``; defaults to the library's
        parametric model (swap in :class:`~repro.perception.model.RBFModel`
        for the paper-faithful network, or a calibrated per-user model).
    tile_size:
        Square tile edge; 4 matches the paper's hardware.
    foveal_radius_deg:
        Eccentricity below which pixels are left untouched.
    axes:
        Candidate optimization channels in tie-break order.
    case2_placement:
        Where a tile's common plane sits (see
        :func:`~repro.core.adjust.adjust_tiles`).
    """

    name = "perceptual"

    gaze_contingent = True

    def __init__(
        self,
        model: DiscriminationModel | None = None,
        tile_size: int = 4,
        foveal_radius_deg: float = DEFAULT_FOVEAL_RADIUS_DEG,
        axes: tuple[int, ...] = (2, 0),
        case2_placement: str = "mid",
    ):
        if tile_size < 1:
            raise ValueError(f"tile_size must be >= 1, got {tile_size}")
        # Also false for NaN, which would otherwise pin no pixel at all.
        if not foveal_radius_deg >= 0:
            raise ValueError(f"foveal_radius_deg must be >= 0, got {foveal_radius_deg}")
        self.model = model if model is not None else default_model()
        self.tile_size = tile_size
        self.foveal_radius_deg = float(foveal_radius_deg)
        self.axes = axes
        self.case2_placement = case2_placement

    def encode(self, ctx: FrameContext) -> FrameResult:
        """Adjust colors perceptually, then cost the frame under BD."""
        tiles, grid = ctx._linear_tiles(self.tile_size)
        ecc_tiles, _ = tile_scalar_field(ctx.eccentricity, self.tile_size)

        # A copy: the pin must not write into an array the model may keep.
        semi_axes = np.array(self.model.semi_axes(tiles, ecc_tiles))
        foveal = ecc_tiles < self.foveal_radius_deg
        semi_axes[foveal] = ParametricEllipsoidLaw.MIN_SEMI_AXIS

        optimized = optimize_tiles(
            tiles, semi_axes, axes=self.axes, case2_placement=self.case2_placement
        )

        n_pixels = ctx.n_pixels
        breakdown = bd_breakdown(optimized.adjusted_srgb, n_pixels=n_pixels)
        baseline = ctx._bd_breakdown(self.tile_size)

        # Perceptual guarantee audit on the pixels we actually moved, against
        # the model's own ellipsoids (the foveal pin touched no moved pixel),
        # on the arrays optimize_tiles has checked.  Foveal distances are
        # zeroed, not gathered out, and the root is taken of the largest
        # square: sqrt is correctly rounded and monotone, so that is the
        # largest distance exactly.
        squared = _squared_mahalanobis(optimized.adjusted, tiles, semi_axes)
        squared[foveal] = 0.0
        max_distance = float(np.sqrt(squared.max(initial=0.0)))

        axis_fractions = {
            axis: count / grid.n_tiles
            for axis, count in enumerate(np.bincount(optimized.chosen_axis).tolist())
            if count
        }

        adjusted_srgb_frame = untile_frame(optimized.adjusted_srgb, grid)
        return FrameResult(
            codec=self.name,
            total_bits=breakdown.total_bits,
            n_pixels=n_pixels,
            breakdown=breakdown,
            reconstruction=adjusted_srgb_frame,
            adjusted_frame=untile_frame(optimized.adjusted, grid),
            adjusted_srgb=adjusted_srgb_frame,
            original_srgb=ctx.srgb8,
            baseline_breakdown=baseline,
            case2_fraction=float(optimized.case2.mean()),
            axis_fractions=axis_fractions,
            max_mahalanobis=max_distance,
            grid=grid,
        )


class VariableBDCostCodec(Codec):
    """Variable-width Base+Delta (footnote 1): per-group delta widths.

    As with :class:`BDCostCodec`, ``payload=True`` additionally emits
    the real bitstream (vectorized) as ``metadata["payload"]``,
    decodable with :class:`repro.encoding.bd_variable.VariableBDCodec`.
    """

    name = "variable-bd"

    def __init__(self, tile_size: int = 4, group_size: int = 4, payload: bool = False):
        # The bitstream codec's constructor rejects sizes no stream can use.
        VariableBDCodec(tile_size, group_size)
        self.tile_size = tile_size
        self.group_size = group_size
        self.payload = payload

    def encode(self, ctx: FrameContext) -> EncodedFrame:
        """Cost the frame under per-group variable-width Base+Delta."""
        tiles, grid = ctx.tiles(self.tile_size)
        metadata = {"tile_size": self.tile_size, "group_size": self.group_size}
        if self.payload:
            metadata["payload"], breakdown = _encode(tiles, grid, self.group_size)
        else:
            breakdown = variable_bd_breakdown(tiles, self.group_size, n_pixels=ctx.n_pixels)
        return EncodedFrame(
            codec=self.name,
            total_bits=breakdown.total_bits,
            n_pixels=ctx.n_pixels,
            breakdown=breakdown,
            metadata=metadata,
        )


class TemporalBDCodec(Codec):
    """Inter-frame BD: spatial vs previous-frame deltas per tile-channel.

    Stateful across :meth:`encode` calls — :meth:`reset`, then feed it
    one stream of frames in display order.  Call :meth:`reset` on a
    scene cut.
    """

    name = "temporal-bd"

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
