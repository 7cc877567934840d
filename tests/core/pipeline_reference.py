"""Reference oracle: the frame pipeline as a standalone encoder.

``PerceptualEncoder.encode_frame(frame, eccentricity)`` is the frame
pipeline before :class:`repro.codecs.wrappers.PerceptualCodec` took it
over: it checks and broadcasts its own inputs, quantizes and tiles the
unadjusted frame itself, and evaluates the discrimination model a second
time for its audit.  The codec reads all of that from its
``FrameContext`` instead; ``tests/core/test_pipeline_oracle.py`` holds
every ``FrameResult`` field of the two equal.

Its optimizer, Base+Delta accounting and audit distance are the
pre-rewrite kernels of ``kernel_reference.py`` beside this module, so
the comparison reaches none of the package's rewritten kernels but the
discrimination model's flat luminance product, which
``test_color_products.py`` holds to the stacked one.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.wrappers import DEFAULT_FOVEAL_RADIUS_DEG, FrameResult
from repro.color.srgb import encode_srgb8
from repro.encoding.tiling import tile_frame, tile_scalar_field, untile_frame
from repro.perception.law import ParametricEllipsoidLaw
from repro.perception.model import DiscriminationModel, default_model

from kernel_reference import bd_breakdown, mahalanobis, optimize_tiles

__all__ = ["PerceptualEncoder"]


class PerceptualEncoder:
    """Color-perception-aware pre-encoder in front of Base+Delta.

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
    """

    def __init__(
        self,
        model: DiscriminationModel | None = None,
        tile_size: int = 4,
        foveal_radius_deg: float = DEFAULT_FOVEAL_RADIUS_DEG,
        axes: tuple[int, ...] = (2, 0),
        case2_placement: str = "mid",
    ):
        if foveal_radius_deg < 0:
            raise ValueError(f"foveal_radius_deg must be >= 0, got {foveal_radius_deg}")
        self.model = model if model is not None else default_model()
        self.tile_size = tile_size
        self.foveal_radius_deg = float(foveal_radius_deg)
        self.axes = axes
        self.case2_placement = case2_placement

    def encode_frame(self, frame_linear, eccentricity_deg) -> FrameResult:
        """Adjust one frame and account its Base+Delta size.

        Parameters
        ----------
        frame_linear:
            ``(H, W, 3)`` linear-RGB frame in ``[0, 1]``.
        eccentricity_deg:
            ``(H, W)`` per-pixel eccentricity in degrees (from the
            display geometry and current gaze), or a scalar applied to
            every pixel.
        """
        frame = np.asarray(frame_linear, dtype=np.float64)
        if frame.ndim != 3 or frame.shape[2] != 3:
            raise ValueError(f"frame must be (H, W, 3), got {frame.shape}")
        ecc = np.asarray(eccentricity_deg, dtype=np.float64)
        if ecc.ndim == 0:
            ecc = np.full(frame.shape[:2], float(ecc))
        if ecc.shape != frame.shape[:2]:
            raise ValueError(
                f"eccentricity map {ecc.shape} does not match frame {frame.shape[:2]}"
            )

        tiles, grid = tile_frame(frame, self.tile_size)
        ecc_tiles, _ = tile_scalar_field(ecc, self.tile_size)

        semi_axes = self.model.semi_axes(tiles, ecc_tiles)
        foveal = ecc_tiles < self.foveal_radius_deg
        semi_axes = np.where(
            foveal[..., None], ParametricEllipsoidLaw.MIN_SEMI_AXIS, semi_axes
        )

        optimized = optimize_tiles(
            tiles, semi_axes, axes=self.axes, case2_placement=self.case2_placement
        )

        n_pixels = grid.height * grid.width
        breakdown = bd_breakdown(optimized.adjusted_srgb, n_pixels=n_pixels)
        original_srgb_tiles = encode_srgb8(tiles)
        baseline = bd_breakdown(original_srgb_tiles, n_pixels=n_pixels)

        # Perceptual guarantee audit on the pixels we actually moved.
        moved = ~foveal
        if moved.any():
            model_axes = self.model.semi_axes(tiles[moved], ecc_tiles[moved])
            distances = mahalanobis(optimized.adjusted[moved], tiles[moved], model_axes)
            max_distance = float(distances.max())
        else:
            max_distance = 0.0

        axis_values, axis_counts = np.unique(optimized.chosen_axis, return_counts=True)
        axis_fractions = {
            int(a): float(c) / grid.n_tiles for a, c in zip(axis_values, axis_counts)
        }

        adjusted_srgb_frame = untile_frame(optimized.adjusted_srgb, grid)
        return FrameResult(
            codec="perceptual",
            total_bits=breakdown.total_bits,
            n_pixels=n_pixels,
            breakdown=breakdown,
            reconstruction=adjusted_srgb_frame,
            adjusted_frame=untile_frame(optimized.adjusted, grid),
            adjusted_srgb=adjusted_srgb_frame,
            original_srgb=untile_frame(original_srgb_tiles, grid),
            baseline_breakdown=baseline,
            case2_fraction=float(optimized.case2.mean()),
            axis_fractions=axis_fractions,
            max_mahalanobis=max_distance,
            grid=grid,
        )
