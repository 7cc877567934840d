"""Quality-oriented analyses beyond the paper: rate-distortion,
temporal stability, and the foveation comparison.

* **Rate-distortion sweep** — the encoder has one knob the paper never
  sweeps: a global scale on the discrimination ellipsoids (the same
  mechanism as per-user calibration).  Sweeping it traces the
  bpp-vs-PSNR-vs-visibility frontier and shows the default (scale 1.0)
  sits exactly at the edge of invisibility.
* **Temporal flicker** — the adjustment is frame-independent; this
  measures whether static regions flicker across an animated sequence.
* **Foveation comparison** — Sec. 7's foveated rendering as a traffic
  reducer, alone and composed with our color adjustment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.foveated import FoveationConfig, foveated_bd_bits
from ..codecs.context import FrameContext
from ..codecs.registry import get_codec
from ..metrics.psnr import psnr
from ..metrics.temporal import flicker_report
from ..perception.model import ParametricModel, ScaledModel
from ..scenes.library import get_scene
from ..study.observer import PsychometricParameters, scene_exceedance
from .common import ExperimentConfig, encoder_for, format_table, render_eval_frames

__all__ = [
    "RateDistortionResult",
    "run_rate_distortion",
    "FlickerResult",
    "run_flicker",
    "FoveationResult",
    "run_foveation_comparison",
]

#: Ellipsoid scales swept by the rate-distortion analysis.
RD_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class RateDistortionResult:
    """bpp / PSNR / peak exceedance per ellipsoid scale."""

    scales: tuple[float, ...]
    bpp: dict[float, float]
    psnr_db: dict[float, float]
    exceedance: dict[float, float]

    def table(self) -> str:
        headers = ["scale", "bpp", "PSNR (dB)", "exceedance"]
        rows = [
            [f"{s:g}", self.bpp[s], self.psnr_db[s], self.exceedance[s]]
            for s in self.scales
        ]
        return format_table(headers, rows)


def run_rate_distortion(config: ExperimentConfig | None = None) -> RateDistortionResult:
    """Sweep a global ellipsoid scale and trace the RD frontier."""
    config = config or ExperimentConfig()
    eccentricity = config.eccentricity_map()
    base_model = ParametricModel()
    params = PsychometricParameters()

    bpp: dict[float, float] = {}
    quality: dict[float, float] = {}
    visibility: dict[float, float] = {}
    for scale in RD_SCALES:
        model = base_model if scale == 1.0 else ScaledModel(base_model, scale)
        encoder = encoder_for(config, model=model)
        bits, psnrs, peaks = [], [], []
        for name in config.scene_names:
            for frame in render_eval_frames(config, name):
                result = encoder.encode(FrameContext(frame, eccentricity=eccentricity))
                bits.append(result.bits_per_pixel)
                psnrs.append(psnr(result.original_srgb, result.adjusted_srgb))
                peaks.append(
                    scene_exceedance(
                        [frame], [result.adjusted_frame], eccentricity,
                        model=base_model, params=params,
                    )
                )
        bpp[scale] = float(np.mean(bits))
        quality[scale] = float(np.mean(psnrs))
        visibility[scale] = float(np.max(peaks))
    return RateDistortionResult(
        scales=RD_SCALES, bpp=bpp, psnr_db=quality, exceedance=visibility
    )


@dataclass(frozen=True)
class FlickerResult:
    """Temporal stability of the adjusted sequences, per scene."""

    amplification: dict[str, float]
    excess_codes: dict[str, float]

    def worst_amplification(self) -> float:
        return max(self.amplification.values())

    def table(self) -> str:
        headers = ["scene", "temporal amplification", "excess (codes)"]
        rows = [
            [scene, self.amplification[scene], self.excess_codes[scene]]
            for scene in self.amplification
        ]
        return format_table(headers, rows, precision=3)


def run_flicker(config: ExperimentConfig | None = None, n_frames: int = 4) -> FlickerResult:
    """Measure output-vs-input temporal variation on animated scenes."""
    config = config or ExperimentConfig()
    encoder = encoder_for(config)
    eccentricity = config.eccentricity_map()

    amplification: dict[str, float] = {}
    excess: dict[str, float] = {}
    for name in config.scene_names:
        scene = get_scene(name)
        inputs, outputs = [], []
        for index in range(n_frames):
            frame = scene.render(config.height, config.width, frame=index, eye="left")
            result = encoder.encode(FrameContext(frame, eccentricity=eccentricity))
            inputs.append(result.original_srgb)
            outputs.append(result.adjusted_srgb)
        report = flicker_report(inputs, outputs)
        amplification[name] = report.amplification
        excess[name] = report.excess_variation
    return FlickerResult(amplification=amplification, excess_codes=excess)


@dataclass(frozen=True)
class FoveationResult:
    """Traffic of foveation vs. color adjustment vs. their composition."""

    bpp: dict[str, float]  # variant -> mean bpp

    def table(self) -> str:
        rows = [[name, value] for name, value in self.bpp.items()]
        return format_table(["variant", "mean bpp"], rows)


def run_foveation_comparison(
    config: ExperimentConfig | None = None,
    foveation: FoveationConfig | None = None,
) -> FoveationResult:
    """Compare BD, foveation, ours, and foveation+ours."""
    config = config or ExperimentConfig()
    foveation = foveation or FoveationConfig()
    encoder = encoder_for(config)
    bd = get_codec("bd", tile_size=config.tile_size)
    eccentricity = config.eccentricity_map()
    n_pixels = config.height * config.width

    totals = {"BD": 0.0, "foveated": 0.0, "ours": 0.0, "foveated+ours": 0.0}
    count = 0
    for name in config.scene_names:
        for frame in render_eval_frames(config, name):
            ctx = FrameContext(frame, eccentricity=eccentricity)
            totals["BD"] += bd.encode(ctx).bits_per_pixel
            totals["foveated"] += foveated_bd_bits(
                frame, eccentricity, foveation, codec=bd
            ) / n_pixels
            totals["ours"] += encoder.encode(ctx).bits_per_pixel
            # Composition: each foveation layer is color-adjusted before
            # BD — the orthogonality claim of the paper's Sec. 7.
            totals["foveated+ours"] += foveated_bd_bits(
                frame, eccentricity, foveation, codec=encoder
            ) / n_pixels
            count += 1
    return FoveationResult(bpp={k: v / count for k, v in totals.items()})


if __name__ == "__main__":
    for runner in (run_rate_distortion, run_flicker, run_foveation_comparison):
        print(f"== {runner.__name__}")
        print(runner().table())
        print()
