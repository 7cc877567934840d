"""Lazily-evaluated per-frame encoding context.

Before the unified codec API, every coster re-derived the same
intermediates per call: the sRGB quantization of the linear frame, the
tile stack, and the gaze-dependent eccentricity map.  A
:class:`FrameContext` computes each of these once, on first use, and
hands the cached value to every codec that asks — so sweeping six
codecs over a frame quantizes it once and tiles it once per tile size.

One constructor builds every context: ``FrameContext(frame_linear,
...)`` over a *linear* frame (the renderer's output; what the
perceptual codec needs) or ``FrameContext(srgb8=..., ...)`` over an
already-quantized uint8 *sRGB* frame (the baseline shim's input).
``ctx.stats`` counts the expensive derivations, which the batch tests
use to assert the amortization actually happens.
"""

from __future__ import annotations

import numpy as np

from ..color.srgb import encode_srgb8
from ..encoding.tiling import TileGrid, tile_frame
from ..scenes.display import QUEST2_DISPLAY, DisplayGeometry

__all__ = ["FrameContext"]


class FrameContext:
    """Shared, cached view of one frame for any number of codecs.

    Parameters
    ----------
    frame_linear:
        ``(H, W, 3)`` linear-RGB frame in ``[0, 1]`` (optional if
        ``srgb8`` is given; required by the perceptual codec).
    srgb8:
        ``(H, W, 3)`` uint8 sRGB frame.  If omitted it is quantized
        lazily from ``frame_linear`` on first access.
    eccentricity:
        Per-pixel eccentricity map in degrees, or a scalar applied to
        every pixel.  If omitted it is derived lazily from ``display``
        and ``fixation``.
    display:
        Display geometry used to derive the eccentricity map; defaults
        to the Quest 2 model.
    fixation:
        Gaze point in normalized image coordinates for the derived
        eccentricity map.
    """

    def __init__(
        self,
        frame_linear=None,
        *,
        srgb8=None,
        eccentricity=None,
        display: DisplayGeometry | None = None,
        fixation: tuple[float, float] = (0.5, 0.5),
    ):
        if frame_linear is None and srgb8 is None:
            raise ValueError("FrameContext needs frame_linear, srgb8, or both")

        self._frame_linear = None
        if frame_linear is not None:
            self._frame_linear = np.asarray(frame_linear, dtype=np.float64)
            self._check_shape(self._frame_linear, "frame_linear")

        self._srgb8 = None
        if srgb8 is not None:
            arr = np.asarray(srgb8)
            self._check_shape(arr, "srgb8")
            if arr.dtype != np.uint8:
                raise TypeError(f"srgb8 must be uint8, got dtype {arr.dtype}")
            if self._frame_linear is not None and arr.shape != self._frame_linear.shape:
                raise ValueError(
                    f"srgb8 {arr.shape} does not match frame_linear "
                    f"{self._frame_linear.shape}"
                )
            self._srgb8 = arr

        shape = (self._frame_linear if self._frame_linear is not None else self._srgb8).shape
        self.height: int = shape[0]
        self.width: int = shape[1]

        self.display = display if display is not None else QUEST2_DISPLAY
        self.fixation = (float(fixation[0]), float(fixation[1]))

        self._eccentricity = None
        if eccentricity is not None:
            ecc = np.asarray(eccentricity, dtype=np.float64)
            if ecc.ndim == 0:
                ecc = np.full((self.height, self.width), float(ecc))
            if ecc.shape != (self.height, self.width):
                raise ValueError(
                    f"eccentricity map {ecc.shape} does not match frame "
                    f"{(self.height, self.width)}"
                )
            self._eccentricity = ecc

        self._tiles: dict[int, tuple[np.ndarray, TileGrid]] = {}
        #: Derivation counters: how often each expensive step actually ran.
        self.stats = {"quantize": 0, "tile": 0, "eccentricity": 0}

    @staticmethod
    def _check_shape(arr: np.ndarray, name: str) -> None:
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"{name} must be (H, W, 3), got {arr.shape}")

    @property
    def n_pixels(self) -> int:
        """Pixel count of the frame (the bits-per-pixel denominator)."""
        return self.height * self.width

    @property
    def frame_linear(self) -> np.ndarray:
        """The linear-RGB frame; required by perceptual codecs."""
        if self._frame_linear is None:
            raise ValueError(
                "this FrameContext was built from an sRGB frame only; "
                "codecs that need linear RGB (perceptual) require "
                "FrameContext(frame_linear, ...)"
            )
        return self._frame_linear

    @property
    def srgb8(self) -> np.ndarray:
        """uint8 sRGB quantization, computed at most once."""
        if self._srgb8 is None:
            self.stats["quantize"] += 1
            self._srgb8 = encode_srgb8(self._frame_linear)
        return self._srgb8

    @property
    def eccentricity(self) -> np.ndarray:
        """Per-pixel eccentricity map (degrees), derived at most once."""
        if self._eccentricity is None:
            self.stats["eccentricity"] += 1
            self._eccentricity = self.display.eccentricity_map(
                self.height, self.width, fixation=self.fixation
            )
        return self._eccentricity

    def tiles(self, tile_size: int) -> tuple[np.ndarray, TileGrid]:
        """sRGB tile stack for ``tile_size``, computed at most once each."""
        key = int(tile_size)
        if key not in self._tiles:
            self.stats["tile"] += 1
            self._tiles[key] = tile_frame(self.srgb8, key)
        return self._tiles[key]
