"""A frame seen under several gazes derives its gaze-free work once.

:func:`~repro.codecs.ladder.encode_scene_streams` builds one
:class:`~repro.codecs.context.FrameContext` per eye and frame and
encodes every fixation through views of it, which share the frame's sRGB
codes, sRGB and linear tiles and unadjusted Base+Delta accounting.
``ladder_reference.py`` keeps the loop that built fresh contexts for
every encode.  On a fleet-64-shaped group (one scene, two frames, three
or four perceptual fixations per frame beside gaze-free and stateful
streams) the two give equal bits and payload bytes, and the counts pin
the saving: one quantization and one linear tiling per eye and frame,
one eccentricity map per gaze-contingent fixation, and none for an
encode that holds only gaze-free codecs.
"""

from __future__ import annotations

import numpy as np
import pytest

import ladder_reference as oracle
import repro.codecs.context as context
import repro.codecs.wrappers as wrappers
from repro.codecs.context import FrameContext
from repro.codecs.ladder import encode_scene_streams
from repro.codecs.wrappers import (
    BDCostCodec,
    NoComCodec,
    PerceptualCodec,
    TemporalBDCodec,
    VariableBDCostCodec,
)
from repro.encoding import tiling
from repro.scenes.display import QUEST2_DISPLAY, DisplayGeometry
from repro.scenes.library import get_scene

SIZE = 32

#: Per perceptual client, its gaze on frames 0 and 1.
PERCEPTUAL_GAZES = (
    ((0.3, 0.4), (0.35, 0.4)),
    ((0.7, 0.2), (0.3, 0.4)),
    ((0.5, 0.5), (0.8, 0.9)),
)

#: The whole-ladder client's gaze: frame 0 repeats the first client's.
LADDER_GAZE = ((0.3, 0.4), (0.1, 0.6))


def fleet_group():
    """Streams of one scene and size, shaped like a fleet-64 group.

    Stateless codecs are shared across streams, as a ladder's are, and
    the bd rungs write their bitstreams, as a frame bank's do.
    """
    nocom, bd, variable_bd = NoComCodec(), BDCostCodec(payload=True), VariableBDCostCodec(
        payload=True
    )
    perceptual = PerceptualCodec()
    streams = [([perceptual], 2, list(gaze)) for gaze in PERCEPTUAL_GAZES]
    streams += [
        ([nocom, bd, variable_bd, perceptual], 2, list(LADDER_GAZE)),
        ([bd], 2, None),
        ([variable_bd, nocom], 2, [(0.2, 0.2), (0.9, 0.9)]),
        ([TemporalBDCodec()], 2, None),
        ([nocom, TemporalBDCodec(), perceptual], 1, [(0.5, 0.5)]),
    ]
    return streams


def perceptual_fixations(streams) -> int:
    """Distinct (frame, gaze) pairs a gaze-contingent codec encodes."""
    return len(
        {
            (index, fixations[index] if fixations is not None else (0.5, 0.5))
            for codecs, n_frames, fixations in streams
            if any(codec.gaze_contingent for codec in codecs)
            for index in range(n_frames)
        }
    )


def run(encode, streams):
    payloads: list = []
    bits = encode(get_scene("office"), streams, SIZE, SIZE, QUEST2_DISPLAY, payloads)
    return bits, payloads


def test_group_matches_fresh_contexts_per_encode():
    bits, payloads = run(encode_scene_streams, fleet_group())
    expected_bits, expected_payloads = run(oracle.encode_scene_streams, fleet_group())
    assert bits == expected_bits
    assert payloads == expected_payloads
    # The bd rungs wrote both eyes' bitstreams on every frame.
    assert all(
        isinstance(frame[index], bytes)
        for stream, index in ((payloads[3], 1), (payloads[3], 2), (payloads[4], 0))
        for frame in stream
    )


@pytest.fixture
def derived(monkeypatch):
    """Counts of sRGB quantizations, linear tilings and eccentricity maps."""
    counts = {"quantize": 0, "linear tiles": 0, "maps": 0}

    def counting(name, function, counted=lambda *args: True):
        def wrapped(*args, **kwargs):
            counts[name] += counted(*args)
            return function(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(context, "encode_srgb8", counting("quantize", context.encode_srgb8))
    linear = counting(
        "linear tiles", tiling.tile_frame, lambda frame, *_: frame.dtype == np.float64
    )
    # The perceptual codec once tiled the linear frame itself.
    for module in (context, wrappers):
        monkeypatch.setattr(module, "tile_frame", linear, raising=False)
    monkeypatch.setattr(
        DisplayGeometry,
        "eccentricity_map",
        counting("maps", DisplayGeometry.eccentricity_map),
    )
    return counts


def test_gaze_free_work_runs_once_per_eye_and_frame(derived):
    streams = fleet_group()
    run(encode_scene_streams, streams)
    assert perceptual_fixations(streams) == 3 + 4
    assert derived == {"quantize": 2 * 2, "linear tiles": 2 * 2, "maps": 3 + 4}


def test_gaze_free_encodes_derive_no_eccentricity_map(derived):
    """Gaze-free codecs under a moving gaze: the map is never read."""
    streams = [
        ([NoComCodec(), BDCostCodec(), VariableBDCostCodec()], 2, [(0.2, 0.2), (0.8, 0.7)]),
        ([TemporalBDCodec()], 2, [(0.6, 0.3), (0.4, 0.4)]),
    ]
    run(encode_scene_streams, streams)
    assert derived == {"quantize": 2 * 2, "linear tiles": 0, "maps": 0}


class TestViews:
    """``FrameContext._at``: one frame under another gaze."""

    @pytest.fixture
    def frame(self):
        return get_scene("office").render(24, 24)

    def test_views_share_the_gaze_free_caches(self, frame):
        ctx = FrameContext(frame)
        near, far = ctx._at((0.2, 0.3)), ctx._at((0.8, 0.7))
        assert near.srgb8 is far.srgb8 is ctx.srgb8
        assert near.tiles(4)[0] is far.tiles(4)[0]
        assert near._linear_tiles(4)[0] is far._linear_tiles(4)[0]
        assert near._bd_breakdown(4) is far._bd_breakdown(4)
        assert near.stats is ctx.stats
        assert ctx.stats == {"quantize": 1, "tile": 1, "eccentricity": 0}

    def test_each_view_derives_its_own_gaze(self, frame):
        ctx = FrameContext(frame, eccentricity=30.0)
        view = ctx._at((0.2, 0.3))
        assert view.fixation == (0.2, 0.3)
        assert np.array_equal(
            view.eccentricity, QUEST2_DISPLAY.eccentricity_map(24, 24, fixation=(0.2, 0.3))
        )
        assert (ctx.eccentricity == 30.0).all()
        given = np.full((24, 24), 5.0)
        assert ctx._at((0.9, 0.9), given).eccentricity is given

    def test_bd_payload_files_the_breakdown_it_planned(self, frame, monkeypatch):
        """The perceptual baseline then reads it: no second accounting."""
        calls = []
        monkeypatch.setattr(
            context, "bd_breakdown", lambda *args, **kwargs: calls.append(args)
        )
        ctx = FrameContext(frame)
        encoded = BDCostCodec(payload=True).encode(ctx)
        assert ctx._bd_breakdown(4) is encoded.breakdown
        assert calls == []
