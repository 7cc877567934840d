"""Codec registry: one place every frame coster is looked up from.

The registry is a literal table of the built-in codec classes.  Names
are case-insensitive, and aliases (``raw`` for ``nocom``, plus the
Fig. 10 spellings ``NoCom``/``SCC``/``BD``/``PNG``) resolve to their
canonical name.  Consumers ask :func:`get_codec` for an instance —
per-codec keyword arguments are routed to the class explicitly, so a
parameter a codec does not take (``tile_size`` on PNG) raises instead
of being silently dropped.

Codecs meaningful as *per-frame streaming encoders* carry a streaming
display name; :func:`streaming_codec_names` is what
``repro.streaming.session.ENCODER_CHOICES`` is derived from.
"""

from __future__ import annotations

from .base import Codec
from .wrappers import (
    BDCostCodec,
    NoComCodec,
    PerceptualCodec,
    PNGCostCodec,
    SCCCodec,
    TemporalBDCodec,
    VariableBDCostCodec,
)

__all__ = [
    "get_codec",
    "available_codecs",
    "resolve_codec_name",
    "streaming_codec_names",
]

#: Canonical name -> codec class, in display order.
_CODECS: dict[str, type[Codec]] = {
    cls.name: cls
    for cls in (
        NoComCodec,
        BDCostCodec,
        PNGCostCodec,
        SCCCodec,
        PerceptualCodec,
        VariableBDCostCodec,
        TemporalBDCodec,
    )
}

#: Alternative spelling -> canonical name.
_ALIASES: dict[str, str] = {"raw": "nocom", "varbd": "variable-bd", "tbd": "temporal-bd"}

#: Display names of the per-frame streaming encoders, in order.
_STREAMING: tuple[str, ...] = ("raw", "bd", "perceptual", "variable-bd")


def resolve_codec_name(name: str) -> str:
    """Canonicalize a codec name or alias (raises ``KeyError`` if unknown)."""
    key = str(name).lower()
    key = _ALIASES.get(key, key)
    if key not in _CODECS:
        raise KeyError(f"unknown codec {name!r}; available: {', '.join(_CODECS)}")
    return key


def get_codec(name: str, **kwargs) -> Codec:
    """Instantiate the codec named ``name`` (case/alias tolerant).

    Keyword arguments are the codec's own constructor parameters; an
    argument the codec does not accept raises ``TypeError`` naming the
    codec, rather than being ignored.
    """
    canonical = resolve_codec_name(name)
    try:
        return _CODECS[canonical](**kwargs)
    except TypeError as exc:
        raise TypeError(f"codec {canonical!r}: {exc}") from exc


def available_codecs() -> tuple[str, ...]:
    """Canonical names of every codec, in display order."""
    return tuple(_CODECS)


def streaming_codec_names() -> tuple[str, ...]:
    """Names valid as ``simulate_session`` encoders."""
    return _STREAMING
