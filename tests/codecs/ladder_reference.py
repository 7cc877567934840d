"""Reference oracle: the scene encoder with fresh contexts for every encode.

Before frames were shared across fixations, each call of the stereo
step built both eyes' :class:`~repro.codecs.context.FrameContext`\\ s
afresh, handed them an eccentricity map computed for the call, and so
quantized, tiled and accounted the unadjusted frame again for every
fixation that encoded it.  These are that stereo step and the
:func:`repro.codecs.ladder.encode_scene_streams` loop around it, their
bodies unchanged; ``test_shared_frame_work.py`` holds the package's loop
equal to them in bits and payload bytes.
"""

from __future__ import annotations

from repro.codecs.context import FrameContext

__all__ = ["encode_stereo_bits", "encode_scene_streams"]


def _bits_and_payload(encoded) -> tuple[int, bytes | None]:
    return encoded.total_bits, encoded.metadata.get("payload")


def encode_stereo_bits(codecs, eyes, eccentricity, display, payloads=None) -> tuple[int, ...]:
    """Stereo-payload bits of one frame under each codec, fresh contexts per call."""
    ctxs = [
        FrameContext(eye, eccentricity=eccentricity, display=display) for eye in eyes
    ]
    bits, streams = [], []
    for codec in codecs:
        # Each eye's encoded result is dropped as soon as it is read.
        eye_bits, eye_streams = zip(*[_bits_and_payload(codec.encode(ctx)) for ctx in ctxs])
        bits.append(sum(eye_bits))
        streams.append(None if None in eye_streams else b"".join(eye_streams))
    if payloads is not None:
        payloads.append(tuple(streams))
    return tuple(bits)


def encode_scene_streams(scene, streams, height, width, display, payloads=None):
    """Render and encode several streams of one scene and size together."""
    for codecs, _, _ in streams:
        for codec in codecs:
            codec.reset()
    bits = [[] for _ in streams]
    streams_payloads = [[] for _ in streams]
    for index in range(max((n_frames for _, n_frames, _ in streams), default=0)):
        eyes = scene.render_stereo(height, width, frame=index)
        done = {}  # share key -> (bits, payload), for this frame only
        for (codecs, n_frames, fixations), rows, rows_payloads in zip(
            streams, bits, streams_payloads
        ):
            if index >= n_frames:
                continue
            fixation = fixations[index] if fixations is not None else (0.5, 0.5)
            # A stateful codec's result also depends on its history: never shared.
            keys = [
                object() if codec.stateful
                else (id(codec), fixation if codec.gaze_contingent else None)
                for codec in codecs
            ]
            todo = {key: codec for key, codec in zip(keys, codecs) if key not in done}
            if todo:
                eccentricity = display.eccentricity_map(height, width, fixation=fixation)
                frame_payloads: list = []
                encoded = encode_stereo_bits(
                    list(todo.values()), eyes, eccentricity, display, frame_payloads
                )
                done.update(zip(todo, zip(encoded, frame_payloads[0])))
            rows.append(tuple(done[key][0] for key in keys))
            rows_payloads.append(tuple(done[key][1] for key in keys))
    if payloads is not None:
        payloads.extend(streams_payloads)
    return bits
