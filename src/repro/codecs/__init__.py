"""Unified codec API: one registry, one result type, shared context.

Every frame coster in the library — NoCom/raw, BD and its variable- and
temporal-width variants, PNG-class lossless, SCC, and the perceptual
adjustment — is reachable by name through one registry and speaks one
contract: a codec is configured by its constructor, a sequence is
``reset()`` and then ``encode(ctx)`` frame by frame, and a context is
built by ``FrameContext(...)``::

    from repro.codecs.context import FrameContext
    from repro.codecs.registry import get_codec

    ctx = FrameContext(frame_linear)          # lazy sRGB / tiles / gaze
    result = get_codec("perceptual").encode(ctx)
    print(result.total_bits, result.bits_per_pixel)

:func:`~repro.codecs.batch.encode_batch` runs several codecs over a frame sequence while
sharing each frame's context, and is the hook batch/async scaling work
builds on.
"""
