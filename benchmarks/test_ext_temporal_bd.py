"""Extension — temporal (inter-frame) BD on animated scene streams.

Spatial BD recompresses every frame from scratch; a one-bit-per-tile
temporal mode (deltas vs the previous frame) exploits frame-to-frame
similarity.  Composes with the perceptual adjustment, whose output is
*more* temporally stable than its input.
"""

import numpy as np
from conftest import run_once

from repro import FrameContext, PerceptualCodec
from repro.encoding.bd import bd_breakdown
from repro.encoding.bd_temporal import TemporalBDAccountant
from repro.encoding.tiling import tile_frame
from repro.scenes.display import QUEST2_DISPLAY
from repro.scenes.library import SCENE_NAMES, get_scene


def _measure(height=192, width=192, n_frames=4):
    ecc = QUEST2_DISPLAY.eccentricity_map(height, width)
    encoder = PerceptualCodec()
    rows = []
    for name in SCENE_NAMES:
        scene = get_scene(name)
        spatial_bits = temporal_bits = 0
        accountant = TemporalBDAccountant()
        n_pixels = height * width
        for index in range(n_frames):
            frame = scene.render(height, width, frame=index, eye="left")
            adjusted = encoder.encode(FrameContext(frame, eccentricity=ecc)).adjusted_srgb
            tiles, _ = tile_frame(adjusted, 4)
            spatial_bits += bd_breakdown(tiles, n_pixels=n_pixels).total_bits
            temporal_bits += accountant.push(tiles, n_pixels=n_pixels).total_bits
        rows.append((name, spatial_bits / (n_pixels * n_frames),
                     temporal_bits / (n_pixels * n_frames)))
    return rows


def test_ext_temporal_bd(benchmark):
    rows = run_once(benchmark, _measure)
    print("\n[Extension] spatial vs temporal BD on adjusted streams (bpp)")
    print(f"{'scene':>9} {'spatial':>8} {'temporal':>9} {'saving':>7}")
    for name, spatial, temporal in rows:
        print(f"{name:>9} {spatial:8.2f} {temporal:9.2f} {1 - temporal / spatial:7.1%}")

    savings = [1 - temporal / spatial for _, spatial, temporal in rows]
    # Temporal mode helps where content is static between frames (the
    # skyline's sky saves >15%); per-frame rendering grain bounds the
    # win elsewhere, and the 1-bit mode field can cost a hair on fully
    # animated noisy scenes — never more than 1%.
    assert max(savings) > 0.15
    assert sum(1 for s in savings if s > 0) >= 4
    assert min(savings) > -0.01
    assert np.mean(savings) > 0.03
