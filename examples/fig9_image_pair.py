"""Reproduce Fig. 9: export an original/adjusted image pair as PNGs.

The paper's Fig. 9 shows a frame with and without the perceptual color
adjustment: viewed on a conventional desktop display — where the whole
image lands in your fovea — the pair is *visibly* different, which is
exactly the point (the difference is engineered to be invisible only
at the peripheral eccentricities each pixel had in the headset).

This script encodes one frame and writes three real PNG files you can
open in any viewer:

    fig9_original.png    the rendered frame
    fig9_adjusted.png    after perceptual adjustment (green-shifted
                         periphery, as the paper describes)
    fig9_difference.png  amplified per-pixel difference

Run:  python examples/fig9_image_pair.py [output_dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro import QUEST2_DISPLAY, FrameContext, get_codec, render_scene
from repro.imageio.png_file import write_png
from repro.metrics.psnr import psnr


def main(output_dir: str = ".") -> None:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    height = width = 320

    frame = render_scene("thai", height, width, eye="left")
    eccentricity = QUEST2_DISPLAY.eccentricity_map(height, width)
    result = get_codec("perceptual").encode(FrameContext(frame, eccentricity=eccentricity))

    difference = np.abs(
        result.adjusted_srgb.astype(np.int16) - result.original_srgb.astype(np.int16)
    )
    amplified = np.clip(difference * 16, 0, 255).astype(np.uint8)

    files = {
        "fig9_original.png": result.original_srgb,
        "fig9_adjusted.png": result.adjusted_srgb,
        "fig9_difference.png": amplified,
    }
    for name, image in files.items():
        size = write_png(out / name, image)
        print(f"wrote {out / name} ({size} bytes)")

    print(
        f"\nPSNR original vs adjusted : {psnr(result.original_srgb, result.adjusted_srgb):.1f} dB"
        f"\nmax per-pixel shift       : {difference.max()} codes"
        f"\nmean shift (periphery)    : {difference[eccentricity >= 10].mean():.2f} codes"
        f"\nreduction vs BD           : {result.bandwidth_reduction_vs_bd:.1%}"
        "\n\nOpen the PNGs side by side: the difference is visible on a desktop"
        "\n(everything is foveal there) yet within every pixel's peripheral"
        "\ndiscrimination ellipsoid at its headset eccentricity."
    )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
