"""Fig. 11 — bits-per-pixel decomposition: base / metadata / deltas.

The paper shows, per scene, side-by-side stacked bars for BD and for
the proposed scheme, demonstrating that the entire saving comes from
the delta component (base and metadata costs are format-fixed).

Runs through the unified codec API: the perceptual codec's result for
each frame's context carries both our breakdown and the BD baseline's.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codecs.context import FrameContext
from .common import ExperimentConfig, encoder_for, format_table, render_eval_frames

__all__ = ["SceneBits", "BitsResult", "run"]

_COMPONENTS = ("base", "metadata", "deltas")


@dataclass(frozen=True)
class SceneBits:
    """Component bpp for BD and for our scheme, one scene."""

    scene: str
    bd: dict[str, float]
    ours: dict[str, float]

    @property
    def delta_saving_bpp(self) -> float:
        """Delta-component saving, where all the benefit lives."""
        return self.bd["deltas"] - self.ours["deltas"]


@dataclass(frozen=True)
class BitsResult:
    """Fig. 11 data across scenes."""

    scenes: list[SceneBits]

    def table(self) -> str:
        headers = ["scene"] + [f"BD {c}" for c in _COMPONENTS] + [
            f"ours {c}" for c in _COMPONENTS
        ]
        rows = [
            [s.scene]
            + [s.bd[c] for c in _COMPONENTS]
            + [s.ours[c] for c in _COMPONENTS]
            for s in self.scenes
        ]
        return format_table(headers, rows)


def run(config: ExperimentConfig | None = None) -> BitsResult:
    """Measure the component decomposition on every scene."""
    config = config or ExperimentConfig()
    codec = encoder_for(config)
    eccentricity = config.eccentricity_map()

    scenes = []
    for name in config.scene_names:
        bd_totals = dict.fromkeys(_COMPONENTS, 0.0)
        ours_totals = dict.fromkeys(_COMPONENTS, 0.0)
        frames = render_eval_frames(config, name)
        for frame in frames:
            ctx = FrameContext(frame, eccentricity=eccentricity, display=config.display)
            result = codec.encode(ctx)
            for component in _COMPONENTS:
                bd_totals[component] += result.baseline_breakdown.component_bpp()[component]
                ours_totals[component] += result.breakdown.component_bpp()[component]
        scenes.append(
            SceneBits(
                scene=name,
                bd={c: v / len(frames) for c, v in bd_totals.items()},
                ours={c: v / len(frames) for c, v in ours_totals.items()},
            )
        )
    return BitsResult(scenes=scenes)


if __name__ == "__main__":
    print(run().table())
