"""Sec. 6.3 — objective quality (PSNR) of the compressed frames.

The paper's point: subjective quality is *not* objective quality.  The
adjusted frames average 46 dB PSNR with a huge standard deviation
(19.5) and all but two scenes sit below 37 dB — normally a visibly
degraded range — yet the study participants barely noticed anything in
the headset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codecs.context import FrameContext
from ..metrics.psnr import psnr
from ..metrics.stats import Summary, summarize
from .common import ExperimentConfig, encoder_for, format_table, render_eval_frames

__all__ = ["ScenePSNR", "PSNRResult", "run"]


@dataclass(frozen=True)
class ScenePSNR:
    """Mean PSNR of the adjusted frames for one scene."""

    scene: str
    psnr_db: float


@dataclass(frozen=True)
class PSNRResult:
    """Sec. 6.3 data across scenes."""

    scenes: list[ScenePSNR]

    def summary(self) -> Summary:
        return summarize([s.psnr_db for s in self.scenes])

    def scenes_below(self, threshold_db: float = 37.0) -> list[str]:
        """Scenes under the paper's 'visible artifacts' PSNR mark."""
        return [s.scene for s in self.scenes if s.psnr_db < threshold_db]

    def table(self) -> str:
        rows = [[s.scene, s.psnr_db] for s in self.scenes]
        stats = self.summary()
        return (
            format_table(["scene", "PSNR (dB)"], rows, precision=1)
            + f"\nmean={stats.mean:.1f} dB std={stats.std:.1f}; "
            f"below 37 dB: {', '.join(self.scenes_below()) or 'none'}"
        )


def run(config: ExperimentConfig | None = None) -> PSNRResult:
    """PSNR of adjusted vs. original sRGB frames, per scene."""
    config = config or ExperimentConfig()
    encoder = encoder_for(config)
    eccentricity = config.eccentricity_map()

    scenes = []
    for name in config.scene_names:
        values = []
        for frame in render_eval_frames(config, name):
            result = encoder.encode(FrameContext(frame, eccentricity=eccentricity))
            values.append(psnr(result.original_srgb, result.adjusted_srgb))
        scenes.append(ScenePSNR(scene=name, psnr_db=float(np.mean(values))))
    return PSNRResult(scenes=scenes)


if __name__ == "__main__":
    print(run().table())
