"""Remote VR rendering over a wireless link (paper Sec. 2.2, Fig. 3).

The paper notes its compression also applies when "remotely rendered
frames are transmitted one by one".  This example simulates exactly
that: a rendering server streams stereo frames of a scene to a headset
over three link classes, with three per-frame encoders — raw, plain
Base+Delta, and the perceptual encoder in front of BD — and reports the
payloads, motion-to-photon latency contribution, and the frame rate
each combination sustains.

Run:  python examples/remote_streaming.py
"""

from __future__ import annotations

from repro.scenes.library import get_scene
from repro.streaming.link import WIFI6_LINK, WIGIG_LINK, WirelessLink
from repro.streaming.session import simulate_session

LINKS = {
    "WiGig 1.8G": WIGIG_LINK,
    "WiFi6 400M": WIFI6_LINK,
    "congested 100M": WirelessLink(bandwidth_mbps=100.0, propagation_ms=4.0),
}
ENCODERS = ("raw", "bd", "perceptual")
TARGET_FPS = 72.0


def main() -> None:
    scene = get_scene("fortnite")
    height = width = 192
    print(f"streaming {scene.name} stereo frames ({height}x{width}) | target {TARGET_FPS:g} FPS\n")
    header = f"{'link':>15} {'encoder':>11} {'payload kB':>11} {'latency ms':>11} {'fps':>7}  ok"
    print(header)
    print("-" * len(header))
    for link_name, link in LINKS.items():
        for encoder in ENCODERS:
            report = simulate_session(
                scene, link, encoder=encoder, n_frames=3,
                height=height, width=width, target_fps=TARGET_FPS,
            )
            print(
                f"{link_name:>15} {encoder:>11} "
                f"{report.mean_payload_bits / 8e3:11.1f} "
                f"{report.mean_latency_s * 1e3:11.2f} "
                f"{report.sustainable_fps:7.0f}  "
                f"{'yes' if report.meets_target else 'NO'}"
            )
        print()
    print(
        "The perceptual stage shrinks every payload below plain BD, which\n"
        "matters most on the constrained link — the same frames arrive\n"
        "sooner and the sustainable frame rate rises."
    )


if __name__ == "__main__":
    main()
