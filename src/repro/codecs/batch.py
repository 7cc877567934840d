"""Batch encoding: amortize context construction, fan out over cores.

Sweeping several codecs over a frame sequence used to rebuild the same
intermediates per (codec, frame) pair.  :func:`encode_batch` builds one
:class:`~repro.codecs.context.FrameContext` per frame and runs every
requested codec over the shared contexts, so each frame is sRGB
quantized at most once and tiled at most once per tile size, and the
eccentricity map (cached on the display geometry) is derived once for
the whole sequence.

With ``n_jobs > 1`` the per-frame work of *stateless* codecs fans out
over a process pool: contexts are split into contiguous chunks and
each worker runs **every** stateless codec over its chunk, so a context
crosses the process boundary once per batch (not once per codec) and
the shared-context amortization happens inside the worker exactly as it
does serially.  Results are reassembled in input order — bit-identical
to the serial path, because every frame's encoding depends only on its
own context.  Stateful codecs (temporal BD) reference the previous
frame and therefore always run serially, in order, whatever ``n_jobs``
says: ``reset()``, then one ``encode(ctx)`` per frame.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..parallel import run_tasks
from .base import Codec, EncodedFrame
from .context import FrameContext
from .registry import get_codec

__all__ = ["encode_batch"]


def _encode_chunk(
    codecs: Sequence[tuple[str, Codec]], ctxs: Sequence[FrameContext]
) -> dict[str, list[EncodedFrame]]:
    """Process-pool worker: run every codec over one chunk of contexts.

    Encoding all codecs inside one task means each context's derived
    caches (sRGB, tiles) are computed once in the worker and shared
    across codecs, and each context is pickled once per batch.
    """
    results: dict[str, list[EncodedFrame]] = {}
    for key, codec in codecs:
        codec.reset()
        results[key] = [codec.encode(ctx) for ctx in ctxs]
    return results


def encode_batch(
    frames: Iterable | None = None,
    ctxs: Sequence[FrameContext] | None = None,
    codecs: Sequence = ("perceptual",),
    *,
    n_jobs: int = 1,
    **context_kwargs,
) -> dict[str, list[EncodedFrame]]:
    """Encode a frame sequence with one or more codecs, sharing context.

    Parameters
    ----------
    frames:
        Linear-RGB frames to encode (ignored if ``ctxs`` is given).
    ctxs:
        Pre-built :class:`FrameContext` objects; pass these to reuse
        caches across separate ``encode_batch`` calls.
    codecs:
        Codec names, built at their defaults, and/or ready
        :class:`Codec` instances configured by their constructors
        (``get_codec("bd", tile_size=8)``).
    n_jobs:
        Process-pool width for stateless codecs.  ``1`` (default) runs
        everything serially in-process; higher values split the frames
        into chunks, each worker running every stateless codec over its
        chunk.  Results are identical either way.  Stateful codecs
        ignore ``n_jobs``.
    context_kwargs:
        Forwarded to every ``FrameContext(frame, ...)`` built from
        ``frames`` (``display``, ``fixation``, ``eccentricity``).

    Returns
    -------
    dict
        Canonical codec name -> list of :class:`EncodedFrame`, one per
        frame, in input order.
    """
    if ctxs is None:
        if frames is None:
            raise ValueError("encode_batch needs frames or ctxs")
        ctxs = [FrameContext(frame, **context_kwargs) for frame in frames]
    elif context_kwargs:
        raise ValueError("context kwargs have no effect when ctxs are pre-built")

    instances: list[tuple[str, Codec]] = []
    for entry in codecs:
        codec = entry if isinstance(entry, Codec) else get_codec(entry)
        key = codec.name or type(codec).__name__
        if any(key == seen for seen, _ in instances):
            raise ValueError(f"codec {key!r} listed twice in one batch")
        instances.append((key, codec))

    stateless = [(key, codec) for key, codec in instances if not codec.stateful]
    # One contiguous chunk of frames per worker, none when every codec
    # is stateful.  A non-integer n_jobs makes one chunk, so run_tasks
    # rejects it before any encode.
    n_frames = len(ctxs) if stateless else 0
    n_chunks = min(n_jobs, n_frames) if isinstance(n_jobs, int) else 1
    chunks = [
        (stateless, ctxs[i * n_frames // n_chunks : (i + 1) * n_frames // n_chunks])
        for i in range(n_chunks)
    ]
    parts = run_tasks(_encode_chunk, chunks, n_jobs)
    results = {
        key: [frame for part in parts for frame in part[key]] for key, _ in stateless
    }
    for key, codec in instances:
        if codec.stateful:
            codec.reset()
            results[key] = [codec.encode(ctx) for ctx in ctxs]
    # Return in roster order regardless of the serial/parallel split.
    return {key: results[key] for key, _ in instances}
