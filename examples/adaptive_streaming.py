"""Adaptive rate control riding out a fading wireless link.

One headset streams over a link that periodically fades from a
comfortable rate to one only the cheapest codecs survive.  A pinned
codec must choose up front: quality (and stalls in every fade) or
stall-free streaming at the bottom rung's quality.  A rate controller
refuses the trade — it rides the quality ladder down into each fade
and back up out of it.

Run:  python examples/adaptive_streaming.py
"""

from __future__ import annotations

from repro.codecs.ladder import QualityLadder, encode_rung_streams
from repro.scenes.display import QUEST2_DISPLAY
from repro.scenes.library import get_scene
from repro.streaming.adaptive import FixedController, simulate_adaptive_session
from repro.streaming.link import WirelessLink
from repro.streaming.traces import BandwidthTrace

# ~1.3x the raw-rung demand at 128x128 when good, a rate only the
# perceptual rung fits through when faded, 0.3 s per phase.
TRACE = BandwidthTrace.square(high_mbps=75.0, low_mbps=22.0, period_s=0.3)
LINK = WirelessLink.traced(TRACE, propagation_ms=3.0)

SESSION = dict(n_frames=144, height=128, width=128)
N_LOOP_FRAMES = 8


def main() -> None:
    scene = get_scene("fortnite")
    # Encode the loop frames at every ladder rung once; every policy's
    # timeline cycles the same rung streams.
    rung_streams = encode_rung_streams(
        scene,
        [rung.build() for rung in QualityLadder.default()],
        N_LOOP_FRAMES,
        SESSION["height"],
        SESSION["width"],
        QUEST2_DISPLAY,
    )
    print(
        f"fading link: {TRACE.bandwidth_mbps_at(0.0):g} / {TRACE.min_mbps:g} Mbps, "
        f"0.3 s per phase | 128x128 stereo at 72 fps\n"
    )
    print(f"{'policy':>17} {'kB/frame':>9} {'stall ms':>9} {'switches':>9} {'quality':>8}")
    for label, controller in [
        ("fixed:nocom", FixedController(rung="nocom")),
        ("fixed:perceptual", FixedController(rung="perceptual")),
        ("buffer", "buffer"),
        ("throughput", "throughput"),
    ]:
        report = simulate_adaptive_session(
            scene, LINK, controller, rung_streams=rung_streams, **SESSION
        )
        stats = report.adaptive
        print(
            f"{label:>17} {report.mean_payload_bits / 8e3:9.1f} "
            f"{stats.stall_time_s * 1e3:9.1f} {stats.rung_switches:9d} "
            f"{stats.mean_quality:8.3f}"
        )
    report = simulate_adaptive_session(
        scene, LINK, "throughput", rung_streams=rung_streams, **SESSION
    )
    dwell = ", ".join(
        f"{name} {seconds:.2f}s"
        for name, seconds in sorted(
            report.adaptive.time_in_rung.items(), key=lambda kv: -kv[1]
        )
    )
    print(f"\nthroughput controller time-in-rung: {dwell}")
    print(
        "\nPinning nocom buys top quality and a stall per fade; pinning\n"
        "perceptual never stalls but pays its quality everywhere.  The\n"
        "throughput controller gets the best of both: lossless rungs in\n"
        "the clear, the perceptual rung through the fades."
    )


if __name__ == "__main__":
    main()
