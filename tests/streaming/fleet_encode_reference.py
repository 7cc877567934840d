"""Reference rung plan: every client renders and encodes its own stream.

The fleet's rung plan, :func:`repro.streaming.fleet.encode_client_streams`,
renders each frame once per (scene, resolution) group and shares
encodes across the group's clients.  This is the plain per-client loop
it replaced, kept as the oracle the fast path must match exactly: for
each client it resets the client's codecs, renders every frame, takes
that client's eccentricity map and encodes every rung it holds.
"""

from __future__ import annotations

from repro.codecs.context import FrameContext
from repro.codecs.ladder import encode_stereo_bits
from repro.scenes.library import get_scene
from repro.streaming.adaptive import FixedController
from repro.streaming.engine import frames_within_window


def client_stream(client, n_frames, rung_map, display, ladder):
    """One client's rung stream: its ``rung_map`` rungs under its gaze."""
    scene = get_scene(client.scene)
    codecs = [ladder.build_codec(index) for index in rung_map]
    for codec in codecs:
        codec.reset()
    stream = []
    for index in range(n_frames):
        fixation = client.fixation_at(index / client.target_fps)
        eyes = scene.render_stereo(client.height, client.width, frame=index)
        eccentricity = display.eccentricity_map(
            client.height, client.width, fixation=fixation
        )
        ctxs = [FrameContext(eye, eccentricity=eccentricity, display=display) for eye in eyes]
        stream.append(encode_stereo_bits(codecs, ctxs))
    return stream


def encode_client_streams_reference(clients, n_frames, display, ladder, policy=None):
    """Start rung, rung map and stream per client, one client at a time."""
    starts = [ladder.index_of(client.codec) for client in clients]
    if policy is None or isinstance(policy, FixedController):
        pinned = policy.pinned_index(ladder) if policy is not None else None
        if pinned is not None:
            starts = [pinned] * len(clients)
        rung_maps = [(start,) for start in starts]
    else:
        rung_maps = [tuple(range(len(ladder)))] * len(clients)
    streams = [
        client_stream(
            client,
            frames_within_window(
                n_frames, client.target_fps, client.start_s, client.stop_s
            ),
            rung_map,
            display,
            ladder,
        )
        for client, rung_map in zip(clients, rung_maps)
    ]
    return list(zip(starts, rung_maps, streams))
