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
says.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..parallel import run_tasks
from .base import Codec, EncodedFrame
from .context import FrameContext
from .registry import get_codec, resolve_codec_name

__all__ = ["make_contexts", "encode_batch"]


def make_contexts(
    frames: Iterable,
    *,
    srgb8: bool = False,
    **context_kwargs,
) -> list[FrameContext]:
    """One :class:`FrameContext` per frame, sharing display/gaze setup.

    ``frames`` are linear-RGB frames unless ``srgb8=True`` (uint8 sRGB).
    Remaining keyword arguments (``display``, ``fixation``,
    ``eccentricity``) are forwarded to every context.
    """
    if srgb8:
        return [FrameContext.from_srgb8(frame, **context_kwargs) for frame in frames]
    return [FrameContext(frame, **context_kwargs) for frame in frames]


def _resolve_options(
    codec_options: Mapping[str, Mapping] | None,
    named: set[str],
    instances: set[str],
) -> dict[str, Mapping]:
    """Canonicalize ``codec_options`` keys and reject ones that cannot
    apply: unknown codecs, codecs not listed in this batch, and codecs
    passed as ready instances (their constructors already ran)."""
    options: dict[str, Mapping] = {}
    for key, value in (codec_options or {}).items():
        try:
            canonical = resolve_codec_name(key)
        except KeyError as exc:
            raise ValueError(
                f"codec_options key {key!r} is not a registered codec: {exc.args[0]}"
            ) from None
        if canonical in options:
            raise ValueError(
                f"codec_options lists codec {canonical!r} twice (key {key!r})"
            )
        if canonical in instances and canonical not in named:
            raise ValueError(
                f"codec_options for {canonical!r} cannot apply: it was passed as a "
                f"ready instance; construct it with those options instead"
            )
        if canonical not in named:
            raise ValueError(
                f"codec_options key {key!r} does not match any codec in this "
                f"batch ({', '.join(sorted(named | instances)) or 'none'})"
            )
        options[canonical] = value
    return options


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
    codec_options: Mapping[str, Mapping] | None = None,
    n_jobs: int = 1,
    **context_kwargs,
) -> dict[str, list[EncodedFrame]]:
    """Encode a frame sequence with one or more codecs, sharing context.

    Parameters
    ----------
    frames:
        Linear-RGB frames to encode (ignored if ``ctxs`` is given).
    ctxs:
        Pre-built contexts, e.g. from :func:`make_contexts`; pass these
        to reuse caches across separate ``encode_batch`` calls.
    codecs:
        Codec names (registry lookup) and/or ready :class:`Codec`
        instances.
    codec_options:
        Per-codec constructor kwargs keyed by codec name, e.g.
        ``{"bd": {"tile_size": 8}}``.  Every key must name (or alias) a
        codec listed in ``codecs`` — a typo'd key raises instead of the
        batch silently running with defaults.
    n_jobs:
        Process-pool width for stateless codecs.  ``1`` (default) runs
        everything serially in-process; higher values split the frames
        into chunks, each worker running every stateless codec over its
        chunk.  Results are identical either way.  Stateful codecs
        ignore ``n_jobs``.
    context_kwargs:
        Forwarded to :func:`make_contexts` (``display``, ``fixation``,
        ``eccentricity``, ``srgb8``).

    Returns
    -------
    dict
        Canonical codec name -> list of :class:`EncodedFrame`, one per
        frame, in input order.
    """
    if ctxs is None:
        if frames is None:
            raise ValueError("encode_batch needs frames or ctxs")
        ctxs = make_contexts(frames, **context_kwargs)
    elif context_kwargs:
        raise ValueError("context kwargs have no effect when ctxs are pre-built")

    # Resolve the roster up front so codec_options can be validated
    # against it before any encoding work starts.
    roster: list[tuple[str, Codec | None, object]] = []
    named: set[str] = set()
    instance_names: set[str] = set()
    for entry in codecs:
        if isinstance(entry, Codec):
            key = entry.name or type(entry).__name__
            instance_names.add(key)
            roster.append((key, entry, entry))
        else:
            key = resolve_codec_name(entry)
            named.add(key)
            roster.append((key, None, entry))
    options = _resolve_options(codec_options, named, instance_names)

    instances: list[tuple[str, Codec]] = []
    for key, instance, _entry in roster:
        if any(key == seen for seen, _ in instances):
            raise ValueError(f"codec {key!r} listed twice in one batch")
        codec = instance if instance is not None else get_codec(key, **dict(options.get(key, {})))
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
            results[key] = codec.encode_batch(ctxs)
    # Return in roster order regardless of the serial/parallel split.
    return {key: results[key] for key, _ in instances}
