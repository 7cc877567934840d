"""Foveated resolution reduction — the Sec. 7 comparator.

The most-studied perceptual optimization in VR is foveated rendering:
reduce *spatial resolution* in the periphery.  The paper positions its
color adjustment as orthogonal ("we focus on adjusting colors rather
than the spatial frequency") and compatible with existing framebuffer
compression.  This module implements a framebuffer-side analogue of
foveation so the two ideas can be compared and *composed*:

* the frame is split into eccentricity rings;
* rings beyond configurable thresholds are box-downsampled 2x or 4x
  (a display-side reconstruction upsamples them back);
* the downsampled rings cost proportionally fewer bits through BD.

Unlike the paper's scheme, foveation changes the decode path (it needs
an upsampler) and visibly blurs the periphery; the comparison bench
shows it buys traffic at a *spatial* quality cost where ours buys a
(smaller) amount at an invisible *color* cost — and that the two
compose, since color adjustment applies to whatever pixels remain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codecs.context import FrameContext
from ..codecs.registry import get_codec

__all__ = ["FoveationConfig", "foveated_bd_bits"]


@dataclass(frozen=True)
class FoveationConfig:
    """Ring thresholds of the peripheral downsampler.

    Pixels below ``half_rate_deg`` keep full resolution; between the
    two thresholds they are 2x downsampled; beyond ``quarter_rate_deg``
    4x.  Defaults follow common foveated-rendering practice.
    """

    half_rate_deg: float = 20.0
    quarter_rate_deg: float = 40.0

    def __post_init__(self):
        if self.half_rate_deg < 0 or self.quarter_rate_deg < 0:
            raise ValueError("ring thresholds must be non-negative")
        if self.quarter_rate_deg < self.half_rate_deg:
            raise ValueError(
                "quarter_rate_deg must be >= half_rate_deg "
                f"({self.quarter_rate_deg} < {self.half_rate_deg})"
            )


def _block_average(frame: np.ndarray, factor: int) -> np.ndarray:
    """Box-downsample then nearest-upsample by ``factor`` (pad-safe)."""
    height, width = frame.shape[:2]
    pad_h = (-height) % factor
    pad_w = (-width) % factor
    padded = np.pad(frame, [(0, pad_h), (0, pad_w), (0, 0)], mode="edge")
    ph, pw = padded.shape[:2]
    blocks = padded.reshape(ph // factor, factor, pw // factor, factor, 3)
    means = blocks.mean(axis=(1, 3))
    up = np.repeat(np.repeat(means, factor, axis=0), factor, axis=1)
    return up[:height, :width]


def _foveate_frame(
    frame_linear: np.ndarray,
    eccentricity_deg: np.ndarray,
    config: FoveationConfig | None = None,
) -> np.ndarray:
    """Apply ring-wise peripheral resolution reduction.

    Returns the *reconstructed* frame (downsample + upsample), i.e.
    what the display would show; the bit accounting in
    :func:`foveated_bd_bits` charges only the reduced sample counts.
    """
    config = config or FoveationConfig()
    frame = np.asarray(frame_linear, dtype=np.float64)
    ecc = np.asarray(eccentricity_deg, dtype=np.float64)
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise ValueError(f"frame must be (H, W, 3), got {frame.shape}")
    if ecc.shape != frame.shape[:2]:
        raise ValueError(
            f"eccentricity map {ecc.shape} does not match frame {frame.shape[:2]}"
        )
    half = _block_average(frame, 2)
    quarter = _block_average(frame, 4)
    out = frame.copy()
    ring2 = (ecc >= config.half_rate_deg) & (ecc < config.quarter_rate_deg)
    ring4 = ecc >= config.quarter_rate_deg
    out[ring2] = half[ring2]
    out[ring4] = quarter[ring4]
    return out


def _downsample(frame: np.ndarray, factor: int) -> np.ndarray:
    """Box-downsample to the actual low-resolution layer (pad-safe)."""
    height, width = frame.shape[:2]
    pad_h = (-height) % factor
    pad_w = (-width) % factor
    spec = [(0, pad_h), (0, pad_w)] + [(0, 0)] * (frame.ndim - 2)
    padded = np.pad(frame, spec, mode="edge")
    ph, pw = padded.shape[:2]
    if frame.ndim == 3:
        blocks = padded.reshape(ph // factor, factor, pw // factor, factor, 3)
        return blocks.mean(axis=(1, 3))
    blocks = padded.reshape(ph // factor, factor, pw // factor, factor)
    return blocks.mean(axis=(1, 3))


def foveated_bd_bits(
    frame_linear: np.ndarray,
    eccentricity_deg: np.ndarray,
    config: FoveationConfig | None = None,
    codec=None,
) -> int:
    """BD cost of a foveated multi-resolution frame layout.

    Models the transport a foveated framebuffer actually uses: three
    resolution layers (full, 1/2, 1/4), of which each eccentricity ring
    ships only its own layer's samples.  The cost of a ring is the BD
    bits-per-pixel of its *downsampled layer image* times the ring's
    sample count (``ring_pixels / factor^2``) — measuring the layer
    image directly accounts for how well low-resolution content
    BD-compresses without double-charging the blur.

    ``codec`` prices each layer image; it defaults to the registered
    ``bd`` codec at its default tile size.  Passing a
    :class:`~repro.codecs.wrappers.PerceptualCodec` composes the paper's
    color adjustment with foveation: each layer is perceptually
    adjusted (against the correspondingly downsampled eccentricity map)
    before BD.
    """
    config = config or FoveationConfig()
    codec = codec if codec is not None else get_codec("bd")
    frame = np.asarray(frame_linear, dtype=np.float64)
    ecc = np.asarray(eccentricity_deg, dtype=np.float64)
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise ValueError(f"frame must be (H, W, 3), got {frame.shape}")
    if ecc.shape != frame.shape[:2]:
        raise ValueError(
            f"eccentricity map {ecc.shape} does not match frame {frame.shape[:2]}"
        )

    ring2 = (ecc >= config.half_rate_deg) & (ecc < config.quarter_rate_deg)
    ring4 = ecc >= config.quarter_rate_deg
    ring_pixels = {
        1: int(frame.shape[0] * frame.shape[1] - ring2.sum() - ring4.sum()),
        2: int(ring2.sum()),
        4: int(ring4.sum()),
    }

    def layer_bpp(factor: int) -> float:
        layer = frame if factor == 1 else np.clip(_downsample(frame, factor), 0, 1)
        layer_ecc = ecc if factor == 1 else _downsample(ecc, factor)
        return codec.encode(FrameContext(layer, eccentricity=layer_ecc)).bits_per_pixel

    total_bits = 0.0
    for factor, pixels in ring_pixels.items():
        if pixels == 0:
            continue
        total_bits += layer_bpp(factor) * pixels / (factor * factor)
    return int(round(total_bits))
