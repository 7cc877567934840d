"""The fleet rung plan shares work across clients of one scene and size.

:func:`~repro.streaming.fleet.encode_client_streams` renders each frame
once per (scene, resolution) group, encodes each gaze-free stateless
rung once per frame and each gaze-contingent rung once per (frame,
fixation), while stateful rungs stay per client.  These tests hold it
equal to the per-client loop it replaced (``fleet_encode_reference``),
check that only codecs flagged ``gaze_contingent`` read the gaze, count
the renders and encodes it saves, and check its ``n_jobs`` validation.
"""

from __future__ import annotations

import numpy as np
import pytest
from fleet_encode_reference import encode_client_streams_reference
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codecs.context import FrameContext
from repro.codecs.registry import _CODECS, available_codecs, get_codec
from repro.codecs.ladder import QualityLadder, QualityRung
from repro.experiments.common import ExperimentConfig
from repro.experiments.fleet import run_fleet
from repro.scenes.display import QUEST2_DISPLAY
from repro.scenes.gaze import saccade_trace
from repro.scenes.library import Scene, get_scene
from repro.streaming.adaptive import FixedController, get_controller
from repro.streaming.fleet import ClientConfig, encode_client_streams

SCENES = ("office", "thai", "skyline")
SIZES = ((16, 16), (16, 24))
FIXATIONS = ((0.5, 0.5), (0.25, 0.75))


def stateful_ladder() -> QualityLadder:
    """A ladder whose middle rung carries state from frame to frame."""
    return QualityLadder(
        rungs=(
            QualityRung(name="bd", codec="bd", quality=1.0),
            QualityRung(name="temporal-bd", codec="temporal-bd", quality=0.98),
            QualityRung(name="perceptual", codec="perceptual", quality=0.93),
        )
    )


LADDERS = {"default": QualityLadder.default, "stateful": stateful_ladder}


def gaze(seed: int):
    return tuple(saccade_trace(duration_s=0.1, rng=np.random.default_rng(seed)))


@st.composite
def fleets(draw):
    """Clients, frame count, ladder name and policy for one rung plan."""
    ladder_name = draw(st.sampled_from(sorted(LADDERS)))
    ladder = LADDERS[ladder_name]()
    codecs = ("perceptual", "bd") if ladder_name == "stateful" else (
        "perceptual", "bd", "variable-bd", "raw"
    )
    scenes = draw(st.lists(st.sampled_from(SCENES), min_size=1, max_size=3, unique=True))
    clients = []
    for index in range(draw(st.integers(min_value=1, max_value=10))):
        height, width = draw(st.sampled_from(SIZES))
        # Static gaze from a two-point pool and traces from a three-seed
        # pool, so equal fixations across clients are common.
        trace = draw(st.sampled_from((None, 0, 1, 2)))
        start_s = draw(st.sampled_from((0.0, 0.01)))
        stop_s = draw(st.sampled_from((None, 0.03)))
        clients.append(
            ClientConfig(
                name=f"c{index}",
                scene=draw(st.sampled_from(scenes)),
                codec=draw(st.sampled_from(codecs)),
                height=height,
                width=width,
                target_fps=draw(st.sampled_from((72.0, 90.0))),
                fixation=draw(st.sampled_from(FIXATIONS)),
                gaze_trace=None if trace is None else gaze(trace),
                start_s=start_s,
                stop_s=None if stop_s is None else start_s + stop_s,
            )
        )
    policy = draw(
        st.sampled_from(
            (
                None,
                FixedController(),
                FixedController(rung=ladder.names[1]),
                get_controller("throughput"),
            )
        )
    )
    n_frames = draw(st.integers(min_value=1, max_value=4))
    return clients, n_frames, ladder_name, policy


def assert_matches_reference(clients, n_frames, ladder_name, policy):
    plans = encode_client_streams(
        clients, n_frames, QUEST2_DISPLAY, LADDERS[ladder_name](), policy
    )
    expected = encode_client_streams_reference(
        clients, n_frames, QUEST2_DISPLAY, LADDERS[ladder_name](), policy
    )
    assert plans == expected


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fleets())
def test_rung_plan_matches_the_per_client_loop(fleet):
    assert_matches_reference(*fleet)


def shared_group(codec: str, fixations=(None, None), stops=(None, None)):
    """Two clients of one scene and size, differing only in gaze and window."""
    return [
        ClientConfig(
            name=f"c{index}", scene="office", codec=codec, height=16, width=16,
            gaze_trace=None if trace is None else gaze(trace), stop_s=stop,
        )
        for index, (trace, stop) in enumerate(zip(fixations, stops))
    ]


@pytest.mark.parametrize(
    "clients, ladder_name",
    [
        # Both clients encode temporal-bd on every frame of one group.
        (shared_group("bd"), "stateful"),
        # The first temporal-bd stream stops before the second.
        (shared_group("bd", stops=(0.03, None)), "stateful"),
        # Perceptual under two different gaze traces, then under one.
        (shared_group("perceptual", fixations=(0, 1)), "default"),
        (shared_group("perceptual", fixations=(2, 2)), "default"),
    ],
    ids=["stateful", "stateful-departure", "distinct-gaze", "equal-gaze"],
)
def test_shared_groups_match_the_per_client_loop(clients, ladder_name):
    assert_matches_reference(clients, 4, ladder_name, get_controller("throughput"))


# -- the gaze flag ----------------------------------------------------------


@pytest.fixture(scope="module")
def codecs():
    """One instance per registered codec; SCC builds its table once."""
    return {name: get_codec(name) for name in available_codecs()}


@pytest.mark.parametrize("name", available_codecs())
def test_only_gaze_contingent_codecs_read_the_gaze(codecs, name):
    codec = codecs[name]
    frame = get_scene("office").render(16, 16)
    results = []
    for fixation in ((0.1, 0.1), (0.9, 0.9)):
        codec.reset()
        results.append(codec.encode(FrameContext(frame, fixation=fixation)))
    near, far = results
    same = near.total_bits == far.total_bits and (
        (near.reconstruction is None and far.reconstruction is None)
        or np.array_equal(near.reconstruction, far.reconstruction)
    )
    assert same is not type(codec).gaze_contingent
    assert "gaze_contingent" not in vars(codec)


# -- the work it saves -------------------------------------------------------


@pytest.fixture
def work(monkeypatch):
    """Counts of stereo renders and per-eye codec encodes."""
    counts = {"renders": [], "encodes": 0}
    render_stereo = Scene.render_stereo

    def counting_render(self, height, width, frame=0):
        counts["renders"].append((self.name, height, width, frame))
        return render_stereo(self, height, width, frame=frame)

    def counting(encode):
        def wrapped(self, ctx):
            counts["encodes"] += 1
            return encode(self, ctx)

        return wrapped

    monkeypatch.setattr(Scene, "render_stereo", counting_render)
    for cls in _CODECS.values():
        monkeypatch.setattr(cls, "encode", counting(cls.encode))
    return counts


SHARED_CONFIG = ExperimentConfig(height=16, width=16, n_frames=3, seed=4)


def test_exact_fleet_renders_each_frame_once(work):
    # 24 clients, 4 per scene: the per-client loop rendered 72 times and
    # encoded 144 eyes.  6 scenes x 3 frames render once each; 9 gaze-free
    # (scene, rung) pairs plus 6 perceptual clients encode per frame and eye.
    run_fleet(SHARED_CONFIG, n_clients=24)
    assert len(work["renders"]) == len(set(work["renders"])) == 18
    assert work["encodes"] == (9 + 6) * 3 * 2 == 90


def test_cohort_representatives_share_gaze_free_rungs(work):
    # 12 representatives encode the whole ladder: the per-client loop
    # rendered 36 times and encoded 360 eyes.  6 scenes x 3 frames render
    # once; 4 gaze-free rungs per scene plus 12 perceptual representatives
    # encode per frame and eye.
    run_fleet(SHARED_CONFIG, n_clients=40, cohorts=True, controller="throughput")
    assert len(work["renders"]) == len(set(work["renders"])) == 18
    assert work["encodes"] == (6 * 4 + 12) * 3 * 2 == 216


# -- validation --------------------------------------------------------------


@pytest.mark.parametrize("cohorts", [False, True], ids=["exact", "cohorts"])
@pytest.mark.parametrize("n_jobs", [0, -1, 1.5])
def test_bad_n_jobs_fails_before_any_encode(work, cohorts, n_jobs):
    config = ExperimentConfig(height=16, width=16, n_frames=2)
    with pytest.raises(ValueError, match="n_jobs must be a positive integer"):
        run_fleet(config, n_clients=4, cohorts=cohorts, n_jobs=n_jobs)
    assert work["renders"] == [] and work["encodes"] == 0
