"""Fig. 12 — distribution of adjustment cases c1 / c2 per scene.

Case 2 (a common plane cuts all ellipsoids, the channel collapses to a
single value) is the profitable one; the paper reports it covers 78.92%
of tiles on average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codecs.context import FrameContext
from .common import ExperimentConfig, encoder_for, format_table, render_eval_frames

__all__ = ["SceneCases", "CaseResult", "run"]


@dataclass(frozen=True)
class SceneCases:
    """Winning-adjustment case split for one scene."""

    scene: str
    case2_fraction: float

    @property
    def case1_fraction(self) -> float:
        return 1.0 - self.case2_fraction


@dataclass(frozen=True)
class CaseResult:
    """Fig. 12 data across scenes."""

    scenes: list[SceneCases]

    @property
    def mean_case2(self) -> float:
        return float(np.mean([s.case2_fraction for s in self.scenes]))

    def table(self) -> str:
        headers = ["scene", "c1 %", "c2 %"]
        rows = [
            [s.scene, 100.0 * s.case1_fraction, 100.0 * s.case2_fraction]
            for s in self.scenes
        ]
        return (
            format_table(headers, rows, precision=1)
            + f"\nmean c2 = {100 * self.mean_case2:.1f}%"
        )


def run(config: ExperimentConfig | None = None) -> CaseResult:
    """Measure the case split of the winning adjustment per scene."""
    config = config or ExperimentConfig()
    encoder = encoder_for(config)
    eccentricity = config.eccentricity_map()

    scenes = []
    for name in config.scene_names:
        fractions = [
            encoder.encode(FrameContext(frame, eccentricity=eccentricity)).case2_fraction
            for frame in render_eval_frames(config, name)
        ]
        scenes.append(SceneCases(scene=name, case2_fraction=float(np.mean(fractions))))
    return CaseResult(scenes=scenes)


if __name__ == "__main__":
    print(run().table())
