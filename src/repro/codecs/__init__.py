"""Unified codec API: one registry, one result type, shared context.

Every frame coster in the library — NoCom/raw, BD and its variable- and
temporal-width variants, PNG-class lossless, SCC, and the perceptual
adjustment — is reachable by name through one registry and speaks one
contract: a codec is configured by its constructor, a sequence is
``reset()`` and then ``encode(ctx)`` frame by frame, and a context is
built by ``FrameContext(...)``::

    from repro.codecs import FrameContext, get_codec

    ctx = FrameContext(frame_linear)          # lazy sRGB / tiles / gaze
    result = get_codec("perceptual").encode(ctx)
    print(result.total_bits, result.bits_per_pixel)

:func:`encode_batch` runs several codecs over a frame sequence while
sharing each frame's context, and is the hook batch/async scaling work
builds on.
"""

from .base import Codec, EncodedFrame
from .context import FrameContext
from .registry import (
    DEFAULT_REGISTRY,
    CodecRegistry,
    available_codecs,
    get_codec,
    register,
    resolve_codec_name,
    streaming_codec_names,
)

from .batch import encode_batch
from .ladder import (
    DEFAULT_LADDER_SPEC,
    QualityLadder,
    QualityRung,
)

# Importing the wrappers registers every built-in codec.
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
    "Codec",
    "EncodedFrame",
    "FrameContext",
    "CodecRegistry",
    "DEFAULT_REGISTRY",
    "register",
    "get_codec",
    "available_codecs",
    "resolve_codec_name",
    "streaming_codec_names",
    "encode_batch",
    "QualityLadder",
    "QualityRung",
    "DEFAULT_LADDER_SPEC",
    "NoComCodec",
    "BDCostCodec",
    "PNGCostCodec",
    "SCCCodec",
    "PerceptualCodec",
    "VariableBDCostCodec",
    "TemporalBDCodec",
]
