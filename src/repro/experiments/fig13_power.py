"""Fig. 13 — power saving over BD across resolutions and frame rates.

The paper sweeps the lowest and highest Quest 2 render resolutions
against its four refresh rates and prices the traffic delta with the
LPDDR4 energy model, subtracting the CAU's own power.  Savings range
from ~180 mW (lowest point, ~29.9% of measured system power) to
~514 mW (highest point), averaging ~307 mW.

Bits-per-pixel are measured on the evaluation scenes at the configured
evaluation size — per-pixel statistics, so they transfer to the target
resolutions — and the traffic is then scaled to each operating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codecs.context import FrameContext
from ..hardware.cau import CAUModel
from ..hardware.energy import OperatingPoint, power_saving_w
from ..scenes.display import (
    QUEST2_HIGH_RESOLUTION,
    QUEST2_LOW_RESOLUTION,
    QUEST2_REFRESH_RATES,
)
from .common import ExperimentConfig, encoder_for, format_table, render_eval_frames

__all__ = ["PowerCell", "PowerResult", "run"]


@dataclass(frozen=True)
class PowerCell:
    """Power saving at one resolution x frame-rate operating point."""

    point: OperatingPoint
    saving_w: float


@dataclass(frozen=True)
class PowerResult:
    """Fig. 13 grid plus the measured bpp that produced it."""

    cells: list[PowerCell]
    bd_bpp: float
    ours_bpp: float

    @property
    def mean_saving_w(self) -> float:
        return float(np.mean([c.saving_w for c in self.cells]))

    @property
    def min_saving_w(self) -> float:
        return float(np.min([c.saving_w for c in self.cells]))

    @property
    def max_saving_w(self) -> float:
        return float(np.max([c.saving_w for c in self.cells]))

    def table(self) -> str:
        headers = ["operating point", "saving (mW)"]
        rows = [[c.point.label, 1000.0 * c.saving_w] for c in self.cells]
        summary = (
            f"bpp BD={self.bd_bpp:.2f} ours={self.ours_bpp:.2f} | "
            f"saving mean={1000 * self.mean_saving_w:.1f} mW "
            f"min={1000 * self.min_saving_w:.1f} max={1000 * self.max_saving_w:.1f}"
        )
        return format_table(headers, rows, precision=1) + "\n" + summary


def run(config: ExperimentConfig | None = None) -> PowerResult:
    """Measure mean bpp over the scene suite, then sweep Fig. 13's grid."""
    config = config or ExperimentConfig()
    encoder = encoder_for(config)
    eccentricity = config.eccentricity_map()

    bd_bpps, ours_bpps = [], []
    for name in config.scene_names:
        for frame in render_eval_frames(config, name):
            result = encoder.encode(FrameContext(frame, eccentricity=eccentricity))
            bd_bpps.append(result.baseline_breakdown.bits_per_pixel)
            ours_bpps.append(result.breakdown.bits_per_pixel)
    bd_bpp = float(np.mean(bd_bpps))
    ours_bpp = float(np.mean(ours_bpps))

    overhead = CAUModel().total_power_w
    cells = []
    for height, width in (QUEST2_LOW_RESOLUTION, QUEST2_HIGH_RESOLUTION):
        for fps in QUEST2_REFRESH_RATES:
            point = OperatingPoint(height=height, width=width, fps=fps)
            cells.append(
                PowerCell(
                    point=point,
                    saving_w=power_saving_w(
                        bd_bpp, ours_bpp, point, encoder_overhead_w=overhead
                    ),
                )
            )
    return PowerResult(cells=cells, bd_bpp=bd_bpp, ours_bpp=ours_bpp)


if __name__ == "__main__":
    print(run().table())
