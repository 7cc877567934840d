"""Engine speed: a controller sweep pays the ladder encode once.

Sweeping rate-control policies over identical content is the adaptive
experiment's hot loop.  The loop frames are rendered and encoded at
every ladder rung once, through
:func:`~repro.codecs.ladder.encode_rung_streams`, and every policy
replays those rung streams through ``rung_streams=`` instead of
re-rendering and re-encoding the full quality ladder.
"""

from conftest import run_once

from repro.codecs.ladder import QualityLadder, encode_rung_streams
from repro.scenes.display import QUEST2_DISPLAY
from repro.scenes.library import Scene, get_scene
from repro.streaming.adaptive import simulate_adaptive_session
from repro.streaming.link import WirelessLink

CONTROLLERS = ("fixed", "buffer", "throughput")
N_STREAM_FRAMES = 8
N_LOOP_FRAMES = 4
LINK = WirelessLink(bandwidth_mbps=200.0, propagation_ms=3.0)


def sweep_controllers(scene):
    ladder = QualityLadder.default()
    rung_streams = encode_rung_streams(
        scene,
        [ladder.build_codec(i) for i in range(len(ladder))],
        N_LOOP_FRAMES,
        96,
        96,
        QUEST2_DISPLAY,
    )
    return {
        controller: simulate_adaptive_session(
            scene,
            LINK,
            controller,
            n_frames=N_STREAM_FRAMES,
            height=96,
            width=96,
            rung_streams=rung_streams,
        )
        for controller in CONTROLLERS
    }


def test_controller_sweep_encodes_ladder_once(benchmark, monkeypatch):
    renders = []
    render_stereo = Scene.render_stereo

    def counting(self, height, width, frame=0):
        renders.append(frame)
        return render_stereo(self, height, width, frame=frame)

    monkeypatch.setattr(Scene, "render_stereo", counting)
    reports = run_once(benchmark, sweep_controllers, get_scene("fortnite"))
    print(
        f"\n[Engine] {len(CONTROLLERS)}-controller sweep over shared rung "
        f"streams: {len(renders)} stereo renders for {N_LOOP_FRAMES} loop frames"
    )

    assert set(reports) == set(CONTROLLERS)
    # The acceptance criterion: however many policies sweep the same
    # content, each loop frame is rendered (and its ladder encoded)
    # exactly once.
    assert sorted(renders) == list(range(N_LOOP_FRAMES))
    # And the sweep still produced real streams over the shared sizes.
    for report in reports.values():
        assert len(report.frames) == N_STREAM_FRAMES
        assert all(frame.payload_bits > 0 for frame in report.frames)
