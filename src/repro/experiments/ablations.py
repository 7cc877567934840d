"""Ablations of the design choices DESIGN.md calls out.

Three sweeps, each isolating one decision of the paper's algorithm:

* **Axis choice** — optimize Blue only, Red only, Green only, or the
  paper's best-of-Red/Blue.  Quantifies what the per-tile axis pick
  buys and why Green is never worth it.
* **Foveal bypass radius** — 0 (adjust everything) to 20 degrees.
  Shows the compression cost of protecting the fovea.
* **Case-2 plane placement** — the paper's HL/LH mean vs. either
  extreme.  All collapse the optimized channel; they differ in how far
  the other channels drift, i.e. in total bit cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codecs.context import FrameContext
from .common import ExperimentConfig, encoder_for, format_table, render_eval_frames

__all__ = [
    "AblationResult",
    "run_axis_ablation",
    "run_fovea_ablation",
    "run_plane_ablation",
]

#: Candidate-axis configurations of the axis ablation.
AXIS_VARIANTS = {
    "blue-only": (2,),
    "red-only": (0,),
    "green-only": (1,),
    "best-of-RB": (2, 0),
}

#: Foveal radii (deg) of the bypass ablation.
FOVEA_RADII = (0.0, 5.0, 10.0, 20.0)

#: Case-2 plane placements (paper uses "mid").
PLANE_PLACEMENTS = ("mid", "hl", "lh")


@dataclass(frozen=True)
class AblationResult:
    """Mean bits-per-pixel per variant, averaged over the scene suite."""

    name: str
    bpp_by_variant: dict[str, float]

    def best_variant(self) -> str:
        return min(self.bpp_by_variant, key=self.bpp_by_variant.get)

    def table(self) -> str:
        rows = [[variant, bpp] for variant, bpp in self.bpp_by_variant.items()]
        return (
            format_table([f"{self.name} variant", "mean bpp"], rows)
            + f"\nbest: {self.best_variant()}"
        )


def _mean_bpp(config: ExperimentConfig, **encoder_overrides) -> float:
    encoder = encoder_for(config, **encoder_overrides)
    eccentricity = config.eccentricity_map()
    bpps = []
    for name in config.scene_names:
        for frame in render_eval_frames(config, name):
            ctx = FrameContext(frame, eccentricity=eccentricity)
            bpps.append(encoder.encode(ctx).bits_per_pixel)
    return float(np.mean(bpps))


def run_axis_ablation(config: ExperimentConfig | None = None) -> AblationResult:
    """Sweep the candidate-axis configurations."""
    config = config or ExperimentConfig()
    return AblationResult(
        name="axis",
        bpp_by_variant={
            label: _mean_bpp(config, axes=axes) for label, axes in AXIS_VARIANTS.items()
        },
    )


def run_fovea_ablation(config: ExperimentConfig | None = None) -> AblationResult:
    """Sweep the foveal bypass radius."""
    config = config or ExperimentConfig()
    return AblationResult(
        name="fovea",
        bpp_by_variant={
            f"{radius:g} deg": _mean_bpp(config, foveal_radius_deg=radius)
            for radius in FOVEA_RADII
        },
    )


def run_plane_ablation(config: ExperimentConfig | None = None) -> AblationResult:
    """Sweep the case-2 common-plane placement."""
    config = config or ExperimentConfig()
    return AblationResult(
        name="plane",
        bpp_by_variant={
            placement: _mean_bpp(config, case2_placement=placement)
            for placement in PLANE_PLACEMENTS
        },
    )


if __name__ == "__main__":
    for runner in (run_axis_ablation, run_fovea_ablation, run_plane_ablation):
        print(runner().table())
        print()
