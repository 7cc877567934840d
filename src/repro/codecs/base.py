"""The unified codec interface: one result type, one encode contract.

Every way the library can answer "what does this frame cost" —
NoCom/raw, Base+Delta and its variable- and temporal-width variants,
PNG-class lossless, SCC, and the perceptual adjustment itself — is a
:class:`Codec`: a named object, configured by its constructor, with a
single ``encode(ctx) -> EncodedFrame`` method over a shared
:class:`~repro.codecs.context.FrameContext`.  Experiments, the
streaming simulator, and the baseline shim all dispatch through this
contract instead of carrying their own per-codec plumbing.

:class:`EncodedFrame` is the common result: total bits (always),
an optional :class:`~repro.encoding.accounting.SizeBreakdown` for
codecs with a base/metadata/delta decomposition, an optional
reconstruction (what a decoder would display), and a free-form
metadata mapping.  The perceptual codec's
:class:`~repro.codecs.wrappers.FrameResult` subclasses it, so the
richest result in the library *is* an ``EncodedFrame``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..encoding.accounting import UNCOMPRESSED_BPP, SizeBreakdown

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .context import FrameContext

__all__ = ["EncodedFrame", "Codec"]


@dataclass(frozen=True, kw_only=True)
class EncodedFrame:
    """Result of encoding one frame with any codec.

    Attributes
    ----------
    codec:
        Registry name of the codec that produced this result.
    total_bits:
        Total encoded size in bits — the one number every codec can
        report.
    n_pixels:
        Source pixel count, the denominator for bits-per-pixel.
    breakdown:
        Component accounting for codecs with a base/metadata/delta
        structure (BD and friends); ``None`` for codecs without one
        (PNG, SCC).
    reconstruction:
        What a decoder would display, if the codec is lossy or
        modifies pixels (the perceptual codec's adjusted sRGB frame);
        ``None`` for pure accounting codecs.
    metadata:
        Free-form codec-specific extras (e.g. PNG compression level,
        SCC table width).
    """

    codec: str
    total_bits: int
    n_pixels: int
    breakdown: SizeBreakdown | None = None
    reconstruction: np.ndarray | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.total_bits < 0:
            raise ValueError(f"total_bits must be non-negative, got {self.total_bits}")
        if self.n_pixels <= 0:
            raise ValueError(f"n_pixels must be positive, got {self.n_pixels}")
        if self.breakdown is not None:
            if self.breakdown.total_bits != self.total_bits:
                raise ValueError(
                    f"breakdown totals {self.breakdown.total_bits} bits but the "
                    f"frame claims {self.total_bits}"
                )
            if self.breakdown.n_pixels != self.n_pixels:
                raise ValueError(
                    f"breakdown covers {self.breakdown.n_pixels} pixels but the "
                    f"frame claims {self.n_pixels}"
                )

    @property
    def bits_per_pixel(self) -> float:
        """Average encoded bits per source pixel."""
        return self.total_bits / self.n_pixels

    @property
    def reduction_vs_uncompressed(self) -> float:
        """Fractional bandwidth reduction against raw 24 bpp frames."""
        return 1.0 - self.bits_per_pixel / UNCOMPRESSED_BPP

    def reduction_vs(self, other: "EncodedFrame") -> float:
        """Fractional traffic reduction of ``self`` relative to ``other``."""
        if other.n_pixels != self.n_pixels:
            raise ValueError(
                f"cannot compare encodings over different pixel counts: "
                f"{self.n_pixels} vs {other.n_pixels}"
            )
        if other.total_bits == 0:
            raise ValueError("reference encoding has zero size")
        return 1.0 - self.total_bits / other.total_bits


class Codec(abc.ABC):
    """A registered frame coster: ``encode(ctx) -> EncodedFrame``.

    Codecs are cheap to construct; per-codec parameters (tile size,
    compression level, discrimination model) are constructor keyword
    arguments, routed explicitly by
    :func:`~repro.codecs.registry.get_codec`.  To run a sequence, call
    :meth:`reset`, then :meth:`encode` once per frame in display order;
    stateful codecs (temporal BD) override :meth:`reset` to drop
    inter-frame state.
    """

    #: Registry name; each built-in codec class declares its own.
    name: str = ""

    #: Whether :meth:`encode` carries state between frames (temporal
    #: BD references the previous frame).  Stateful codecs must see one
    #: stream in display order, so batch parallelism keeps them serial.
    stateful: bool = False

    #: Whether :meth:`encode` reads the gaze (``ctx.eccentricity``).  A
    #: gaze-free codec's result depends on the frame alone, so a fleet
    #: encodes it once per frame for all clients of one scene and size.
    gaze_contingent: bool = False

    @abc.abstractmethod
    def encode(self, ctx: "FrameContext") -> EncodedFrame:
        """Encode one frame described by a shared context."""

    def reset(self) -> None:
        """Drop inter-frame state (no-op for stateless codecs)."""
