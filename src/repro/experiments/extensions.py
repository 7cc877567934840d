"""Extension experiments beyond the paper's evaluation section.

Each of these measures something the paper *names* but does not
evaluate:

* **Gaze latency** (Sec. 6.3): participants reported artifacts during
  rapid eye movement, attributed to rendering lag / slow gaze
  detection.  We encode with a *stale* fixation and score visibility
  under the true one, sweeping the gaze error.
* **Dark adaptation** (Sec. 7): weaker discrimination when
  dark-adapted should further improve compression.  We sweep the
  adaptation state on the dark scenes.
* **Variable-width BD** (footnote 1): finer width granularity inside a
  tile vs. the extra metadata it costs, with and without perceptual
  adjustment in front.
* **Remote rendering** (Sec. 2.2): per-frame streaming over modeled
  wireless links; which encoders sustain which refresh rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codecs.context import FrameContext
from ..codecs.registry import get_codec
from ..perception.adaptation import DarkAdaptedModel
from ..perception.model import ParametricModel
from ..scenes.library import get_scene
from ..streaming.link import WIFI6_LINK, WIGIG_LINK, WirelessLink
from ..streaming.session import ENCODER_CHOICES, simulate_session
from ..study.observer import PsychometricParameters, scene_exceedance
from .common import ExperimentConfig, encoder_for, format_table, render_eval_frames

__all__ = [
    "GazeLatencyResult",
    "run_gaze_latency",
    "DarkAdaptationResult",
    "run_dark_adaptation",
    "VariableBDResult",
    "run_variable_bd",
    "StreamingResult",
    "run_streaming",
]

#: Gaze errors (degrees) swept by the gaze-latency experiment.  A 150
#: ms end-to-end gaze latency during a 300 deg/s saccade is ~45 deg of
#: error; the sweep covers steady fixation up to that regime.
GAZE_ERRORS_DEG = (0.0, 2.0, 5.0, 10.0, 20.0)

#: Dark-adaptation states swept (0 = light-adapted baseline).
ADAPTATION_STATES = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class GazeLatencyResult:
    """Peak artifact exceedance vs. gaze error, per scene."""

    gaze_errors_deg: tuple[float, ...]
    exceedance: dict[str, dict[float, float]]  # scene -> error -> value

    def mean_exceedance(self, error_deg: float) -> float:
        return float(np.mean([by[error_deg] for by in self.exceedance.values()]))

    def table(self) -> str:
        headers = ["scene"] + [f"{e:g} deg" for e in self.gaze_errors_deg]
        rows = [
            [scene] + [by[e] for e in self.gaze_errors_deg]
            for scene, by in self.exceedance.items()
        ]
        return format_table(headers, rows, precision=3)


def run_gaze_latency(config: ExperimentConfig | None = None) -> GazeLatencyResult:
    """Encode with a stale fixation, score with the true one.

    The encoder believes the user fixates the screen center; the user
    actually fixates ``error`` degrees away (we move the fixation point
    horizontally).  Visibility is the study harness's exceedance
    statistic computed against the *true* eccentricities.
    """
    config = config or ExperimentConfig()
    encoder = encoder_for(config)
    params = PsychometricParameters()
    half_fov = config.display.fov_horizontal_deg / 2.0

    stale = config.display.eccentricity_map(config.height, config.width)
    exceedance: dict[str, dict[float, float]] = {}
    for name in config.scene_names:
        frames = render_eval_frames(config, name)
        by_error: dict[float, float] = {}
        for error in GAZE_ERRORS_DEG:
            # True fixation displaced by `error` degrees of visual angle.
            offset = np.tan(np.radians(error)) / (2 * np.tan(np.radians(half_fov)))
            true_fix = (min(0.5 + offset, 1.0), 0.5)
            true_ecc = config.display.eccentricity_map(
                config.height, config.width, fixation=true_fix
            )
            peaks = []
            for frame in frames:
                result = encoder.encode(FrameContext(frame, eccentricity=stale))
                peaks.append(
                    scene_exceedance(
                        [frame], [result.adjusted_frame], true_ecc,
                        model=encoder.model, params=params,
                    )
                )
            by_error[error] = float(np.max(peaks))
        exceedance[name] = by_error
    return GazeLatencyResult(gaze_errors_deg=GAZE_ERRORS_DEG, exceedance=exceedance)


@dataclass(frozen=True)
class DarkAdaptationResult:
    """Mean bpp vs. adaptation state, dark scenes vs. bright scenes."""

    states: tuple[float, ...]
    bpp_dark_scenes: dict[float, float]
    bpp_bright_scenes: dict[float, float]

    def dark_scene_gain(self) -> float:
        """Traffic saved on dark scenes by full dark adaptation."""
        return 1.0 - self.bpp_dark_scenes[self.states[-1]] / self.bpp_dark_scenes[0.0]

    def bright_scene_gain(self) -> float:
        return 1.0 - self.bpp_bright_scenes[self.states[-1]] / self.bpp_bright_scenes[0.0]

    def table(self) -> str:
        headers = ["adaptation", "dark scenes bpp", "bright scenes bpp"]
        rows = [
            [f"{s:g}", self.bpp_dark_scenes[s], self.bpp_bright_scenes[s]]
            for s in self.states
        ]
        return format_table(headers, rows) + (
            f"\nfull-adaptation gain: dark {100 * self.dark_scene_gain():.1f}% | "
            f"bright {100 * self.bright_scene_gain():.1f}%"
        )


def run_dark_adaptation(config: ExperimentConfig | None = None) -> DarkAdaptationResult:
    """Sweep the dark-adaptation state over dark and bright scenes."""
    config = config or ExperimentConfig()
    eccentricity = config.eccentricity_map()
    dark_scenes = [n for n in ("dumbo", "monkey") if n in config.scene_names]
    bright_scenes = [n for n in ("fortnite", "skyline") if n in config.scene_names]
    if not dark_scenes or not bright_scenes:
        raise ValueError("config must include at least one dark and one bright scene")

    base_model = ParametricModel()
    bpp_dark: dict[float, float] = {}
    bpp_bright: dict[float, float] = {}
    for state in ADAPTATION_STATES:
        model = base_model if state == 0.0 else DarkAdaptedModel(base_model, state)
        encoder = encoder_for(config, model=model)

        def mean_bpp(names):
            values = []
            for name in names:
                for frame in render_eval_frames(config, name):
                    ctx = FrameContext(frame, eccentricity=eccentricity)
                    values.append(encoder.encode(ctx).bits_per_pixel)
            return float(np.mean(values))

        bpp_dark[state] = mean_bpp(dark_scenes)
        bpp_bright[state] = mean_bpp(bright_scenes)
    return DarkAdaptationResult(
        states=ADAPTATION_STATES, bpp_dark_scenes=bpp_dark, bpp_bright_scenes=bpp_bright
    )


@dataclass(frozen=True)
class VariableBDResult:
    """Fixed vs variable-width BD, with and without adjustment."""

    bpp: dict[str, float]  # variant name -> mean bpp

    def table(self) -> str:
        rows = [[name, value] for name, value in self.bpp.items()]
        return format_table(["variant", "mean bpp"], rows)


def run_variable_bd(
    config: ExperimentConfig | None = None, group_size: int = 4
) -> VariableBDResult:
    """Measure footnote 1's variable-width extension on the scene suite."""
    config = config or ExperimentConfig()
    perceptual = encoder_for(config)
    fixed = get_codec("bd", tile_size=config.tile_size)
    variable = get_codec(
        "variable-bd", tile_size=config.tile_size, group_size=group_size
    )
    eccentricity = config.eccentricity_map()

    totals = {
        "BD fixed": 0.0,
        "BD variable": 0.0,
        "ours fixed": 0.0,
        "ours variable": 0.0,
    }
    count = 0
    for name in config.scene_names:
        for frame in render_eval_frames(config, name):
            # One context per frame (original) and per adjusted output:
            # fixed- and variable-width BD share each context's tiling.
            original = FrameContext(frame, eccentricity=eccentricity)
            result = perceptual.encode(original)
            adjusted = FrameContext(srgb8=result.adjusted_srgb)
            totals["BD fixed"] += fixed.encode(original).bits_per_pixel
            totals["BD variable"] += variable.encode(original).bits_per_pixel
            totals["ours fixed"] += fixed.encode(adjusted).bits_per_pixel
            totals["ours variable"] += variable.encode(adjusted).bits_per_pixel
            count += 1
    return VariableBDResult(bpp={k: v / count for k, v in totals.items()})


@dataclass(frozen=True)
class StreamingResult:
    """Sustainable frame rate per encoder per link."""

    fps: dict[str, dict[str, float]]  # link label -> encoder -> fps
    target_fps: float

    def table(self) -> str:
        encoders = list(ENCODER_CHOICES)
        headers = ["link"] + encoders
        rows = [
            [link] + [by[encoder] for encoder in encoders]
            for link, by in self.fps.items()
        ]
        return format_table(headers, rows, precision=0) + (
            f"\n(target: {self.target_fps:g} FPS)"
        )


def run_streaming(
    config: ExperimentConfig | None = None,
    links: dict[str, WirelessLink] | None = None,
    target_fps: float = 72.0,
) -> StreamingResult:
    """Remote-rendering sustainable FPS for raw / BD / perceptual."""
    config = config or ExperimentConfig()
    if links is None:
        links = {
            "WiFi6 (400 Mbps)": WIFI6_LINK,
            "WiGig (1.8 Gbps)": WIGIG_LINK,
            "congested (100 Mbps)": WirelessLink(bandwidth_mbps=100.0, propagation_ms=4.0),
        }
    scene = get_scene(config.scene_names[0])
    fps: dict[str, dict[str, float]] = {}
    for label, link in links.items():
        fps[label] = {}
        for encoder_name in ENCODER_CHOICES:
            report = simulate_session(
                scene,
                link,
                encoder=encoder_name,
                n_frames=config.n_frames,
                height=config.height,
                width=config.width,
                target_fps=target_fps,
                seed=config.seed,
            )
            fps[label][encoder_name] = report.sustainable_fps
    return StreamingResult(fps=fps, target_fps=target_fps)


if __name__ == "__main__":
    for runner in (run_gaze_latency, run_dark_adaptation, run_variable_bd, run_streaming):
        print(f"== {runner.__name__}")
        print(runner().table())
        print()
