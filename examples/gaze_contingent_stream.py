"""Gaze-contingent encoding of a stereo VR sequence.

Simulates what the paper's system does every frame: the user's gaze
moves, the eccentricity map follows it, and the encoder compresses each
eye's sub-frame against the gaze-dependent discrimination ellipsoids.
Prints the per-frame traffic and the DRAM power implied at a Quest 2
operating point.

Run:  python examples/gaze_contingent_stream.py
"""

from __future__ import annotations

import numpy as np

from repro import QUEST2_DISPLAY, FrameContext, get_codec
from repro.hardware.energy import OperatingPoint, power_saving_w
from repro.hardware.cau import CAUModel
from repro.scenes.library import get_scene


def gaze_path(n_frames: int) -> list[tuple[float, float]]:
    """A smooth saccade path sweeping across the display."""
    ts = np.linspace(0.0, 1.0, n_frames)
    xs = 0.5 + 0.35 * np.sin(2 * np.pi * ts)
    ys = 0.5 + 0.25 * np.cos(2 * np.pi * ts * 0.5)
    return list(zip(xs, ys))


def main() -> None:
    height = width = 192
    n_frames = 6
    scene = get_scene("skyline")
    encoder = get_codec("perceptual")

    print(f"scene: {scene.name} | {n_frames} stereo frames at {height}x{width}")
    print(f"{'frame':>5} {'gaze':>14} {'L bpp':>7} {'R bpp':>7} {'vs BD':>7}")

    bd_bpps, ours_bpps = [], []
    for index, (gx, gy) in enumerate(gaze_path(n_frames)):
        eccentricity = QUEST2_DISPLAY.eccentricity_map(
            height, width, fixation=(gx, gy)
        )
        left, right = scene.render_stereo(height, width, frame=index)
        results = [
            encoder.encode(FrameContext(eye, eccentricity=eccentricity)) for eye in (left, right)
        ]
        bd_bpps.append(np.mean([r.baseline_breakdown.bits_per_pixel for r in results]))
        ours_bpps.append(np.mean([r.breakdown.bits_per_pixel for r in results]))
        reduction = np.mean([r.bandwidth_reduction_vs_bd for r in results])
        print(
            f"{index:>5} ({gx:.2f}, {gy:.2f})  "
            f"{results[0].breakdown.bits_per_pixel:7.2f} "
            f"{results[1].breakdown.bits_per_pixel:7.2f} {reduction:7.1%}"
        )

    # Price the sequence's average traffic at a real headset operating
    # point, including the CAU's own power.
    point = OperatingPoint(height=2736, width=5408, fps=90)
    saving = power_saving_w(
        float(np.mean(bd_bpps)),
        float(np.mean(ours_bpps)),
        point,
        encoder_overhead_w=CAUModel().total_power_w,
    )
    print(f"\nimplied DRAM power saving at {point.label}: {saving * 1000:.0f} mW")


if __name__ == "__main__":
    main()
