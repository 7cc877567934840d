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

Everything but the eccentricity map is gaze-free, so a frame seen under
several gazes derives it once: the streaming encoder builds one context
per eye and frame, and each fixation encodes through a view of it
(``_at``) that shares the gaze-free caches and has its own gaze.
"""

from __future__ import annotations

import copy

import numpy as np

from ..color.srgb import encode_srgb8
from ..encoding.accounting import SizeBreakdown
from ..encoding.bd import bd_breakdown
from ..encoding.tiling import TileGrid, tile_frame
from ..scenes.display import QUEST2_DISPLAY, DisplayGeometry

__all__ = ["FrameContext"]


class _GazeFree:
    """One frame's gaze-free derivations, shared by its views under every gaze.

    ``srgb8`` is the uint8 sRGB quantization; ``tiles`` and
    ``linear_tiles`` map a tile size to the sRGB and linear-RGB tile
    stacks, and ``breakdowns`` to the unadjusted frame's Base+Delta
    accounting.  ``stats`` counts the derivations.
    """

    __slots__ = ("srgb8", "tiles", "linear_tiles", "breakdowns", "stats")

    def __init__(self, srgb8: np.ndarray | None):
        self.srgb8 = srgb8
        self.tiles: dict[int, tuple[np.ndarray, TileGrid]] = {}
        self.linear_tiles: dict[int, tuple[np.ndarray, TileGrid]] = {}
        self.breakdowns: dict[int, SizeBreakdown] = {}
        self.stats = {"quantize": 0, "tile": 0, "eccentricity": 0}


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
        every pixel; NaN is rejected.  If omitted it is derived lazily
        from ``display`` and ``fixation``.
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

        arr = None
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
        self._shared = _GazeFree(arr)

        shape = (self._frame_linear if self._frame_linear is not None else arr).shape
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
            if np.isnan(ecc).any():
                raise ValueError("eccentricity map contains NaN")
            self._eccentricity = ecc

        #: Derivation counters: how often each expensive step actually ran.
        self.stats = self._shared.stats

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
        shared = self._shared
        if shared.srgb8 is None:
            self.stats["quantize"] += 1
            shared.srgb8 = encode_srgb8(self._frame_linear)
        return shared.srgb8

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
        cache = self._shared.tiles
        if key not in cache:
            self.stats["tile"] += 1
            cache[key] = tile_frame(self.srgb8, key)
        return cache[key]

    def _linear_tiles(self, tile_size: int) -> tuple[np.ndarray, TileGrid]:
        """Linear-RGB tile stack for ``tile_size``, computed at most once each."""
        cache = self._shared.linear_tiles
        if tile_size not in cache:
            cache[tile_size] = tile_frame(self.frame_linear, tile_size)
        return cache[tile_size]

    def _bd_breakdown(self, tile_size: int) -> SizeBreakdown:
        """Base+Delta accounting of the unadjusted frame, at most once per tile size.

        The bd rung's cost and the perceptual rung's baseline.  A bd
        encode that writes its bitstream files the breakdown it takes
        from the same plan here itself.
        """
        cache = self._shared.breakdowns
        if tile_size not in cache:
            cache[tile_size] = bd_breakdown(self.tiles(tile_size)[0], n_pixels=self.n_pixels)
        return cache[tile_size]

    def _at(self, fixation, eccentricity=None) -> "FrameContext":
        """This frame under the gaze ``fixation``, sharing its gaze-free caches.

        The view takes ``eccentricity``, that gaze's map, or derives its
        own on first read, as any context does.
        """
        view = copy.copy(self)
        view.fixation = (float(fixation[0]), float(fixation[1]))
        view._eccentricity = eccentricity
        return view
