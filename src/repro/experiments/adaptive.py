"""Fixed-vs-adaptive rate control under a fading wireless link.

The paper's encoder matters most exactly when the wireless path is the
bottleneck, and real wireless paths *fade*.  This experiment pits every
fixed quality-ladder rung (today's pinned-codec streaming) against the
adaptive controllers on one fading link and asks the DASH question:
who stalls, and what quality do they deliver while not stalling?

The link is **self-calibrated** from the content: each rung's demand
(mean payload x refresh rate) is measured first, the good phase of a
square-wave trace is set above the most expensive rung's demand and the
faded phase lands between the two cheapest rungs' demands.  During a
fade every fixed rung but the cheapest therefore oversubscribes the
link and accumulates stall, while an adaptive client can always step
down to a rung that fits — so adaptation should match the cheapest
rung's (near-zero) stall at far higher delivered quality, and beat
every other rung on both axes at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codecs.ladder import QualityLadder, encode_rung_streams
from ..scenes.library import get_scene
from ..streaming.adaptive import (
    AdaptiveSessionReport,
    FixedController,
    simulate_adaptive_session,
)
from ..streaming.link import WirelessLink
from ..streaming.traces import BandwidthTrace
from .common import ExperimentConfig, format_table

__all__ = ["AdaptiveResult", "run", "DEFAULT_SCENE", "FADE_PERIOD_S"]

#: Scene used for the sweep (high-entropy content separates the rungs).
DEFAULT_SCENE = "fortnite"

#: Dwell time of each square-wave phase, seconds.  Off a multiple of
#: the frame interval so fades do not phase-lock to frame boundaries.
FADE_PERIOD_S = 0.29

#: Frames streamed per policy (~2.3 s at 72 fps: four full fade cycles).
N_STREAM_FRAMES = 168

#: Unique animation frames encoded once; every policy's timeline cycles
#: them.
N_LOOP_FRAMES = 8


@dataclass(frozen=True)
class AdaptiveResult:
    """Per-policy streaming outcomes on one fading link.

    Attributes
    ----------
    reports:
        Policy label (``fixed:<rung>``, ``buffer``, ``throughput``) to
        its :class:`~repro.streaming.adaptive.AdaptiveSessionReport`.
    trace:
        The calibrated bandwidth trace every policy streamed over.
    ladder_names:
        Rung names, best first.
    """

    reports: dict[str, AdaptiveSessionReport]
    trace: BandwidthTrace
    ladder_names: tuple[str, ...]

    def _fixed_labels(self) -> list[str]:
        return [label for label in self.reports if label.startswith("fixed:")]

    def _adaptive_labels(self) -> list[str]:
        return [label for label in self.reports if not label.startswith("fixed:")]

    def table(self) -> str:
        """Per-policy stall/quality table plus the adaptive-vs-fixed verdict."""
        headers = ["policy", "kB/frame", "stall ms", "switches", "quality", "p95 ms"]
        rows = []
        for label, report in self.reports.items():
            stats = report.adaptive
            latencies = [f.motion_to_photon_s for f in report.frames]
            rows.append([
                label,
                report.mean_payload_bits / 8e3,
                stats.stall_time_s * 1e3,
                stats.rung_switches,
                f"{stats.mean_quality:.3f}",
                float(np.percentile(latencies, 95.0)) * 1e3,
            ])
        lines = [format_table(headers, rows, precision=1)]
        lines.append(
            f"link: square wave {self.trace.bandwidth_mbps_at(0.0):.1f} /"
            f" {self.trace.min_mbps:.1f} Mbps, {FADE_PERIOD_S:g} s per phase"
        )
        lines.append(self.verdict())
        return "\n".join(lines)

    def verdict(self) -> str:
        """The acceptance readout: adaptive vs every fixed rung.

        Adaptation wins when its stall time is no worse than *every*
        fixed rung — strictly better than each rung that stalls at all
        — while its delivered quality stays within 10% of the best
        fixed rung's.
        """
        fixed = {label: self.reports[label].adaptive for label in self._fixed_labels()}
        best_quality = max(stats.mean_quality for stats in fixed.values())
        parts = []
        for label in self._adaptive_labels():
            stats = self.reports[label].adaptive
            no_worse = sum(
                stats.stall_time_s <= other.stall_time_s for other in fixed.values()
            )
            strict = sum(
                stats.stall_time_s < other.stall_time_s for other in fixed.values()
            )
            within = stats.mean_quality >= 0.9 * best_quality
            parts.append(
                f"{label}: stall no worse than {no_worse}/{len(fixed)} fixed rungs "
                f"({strict} strictly), quality {stats.mean_quality:.3f} "
                f"({'within' if within else 'OUTSIDE'} 10% of best {best_quality:.3f})"
            )
        return "adaptive vs fixed: " + "; ".join(parts)


def _calibrate_trace(bits: np.ndarray, target_fps: float) -> BandwidthTrace:
    """A square-wave fade that only the cheapest rung survives.

    The good phase clears the most expensive rung's worst frame; the
    faded phase sits between the cheapest rung's *worst* frame and the
    second-cheapest rung's *best* frame (falling back to the midpoint
    of their means when frame-size variance makes those overlap), so
    the cheapest rung streams through fades stall-free while every
    other rung oversubscribes the link.
    """
    mean_demand = bits.mean(axis=1) * target_fps
    order = np.argsort(mean_demand)
    cheapest, second = int(order[0]), int(order[1])
    high_bps = 1.15 * bits.max() * target_fps
    floor_bps = bits[cheapest].max() * target_fps
    ceil_bps = bits[second].min() * target_fps
    if floor_bps < ceil_bps:
        low_bps = 0.5 * (floor_bps + ceil_bps)
    else:
        low_bps = 0.5 * (mean_demand[cheapest] + mean_demand[second])
    return BandwidthTrace.square(high_bps / 1e6, low_bps / 1e6, FADE_PERIOD_S)


def run(config: ExperimentConfig | None = None, target_fps: float = 72.0) -> AdaptiveResult:
    """Sweep every fixed rung and both adaptive policies on one fade.

    Parameters
    ----------
    config:
        Shared experiment knobs; ``height``/``width`` set the render
        size and ``seed`` the jitter stream.  The frame count is fixed
        (four fade cycles) so the CLI's animation-frame default does
        not truncate the fades.
    target_fps:
        Refresh rate of the simulated client.

    Returns
    -------
    AdaptiveResult
        One report per policy over the same calibrated fading link.
    """
    config = config or ExperimentConfig()
    scene_name = DEFAULT_SCENE if DEFAULT_SCENE in config.scene_names else config.scene_names[0]
    ladder = QualityLadder.default()

    scene = get_scene(scene_name)
    # Every policy streams the identical content, so one encode of the
    # loop frames serves both the calibration measurement and every
    # sweep — the ladder is encoded once, not once per policy.
    rung_streams = encode_rung_streams(
        scene,
        [ladder.build_codec(i) for i in range(len(ladder))],
        N_LOOP_FRAMES,
        config.height,
        config.width,
        config.display,
    )
    bits = np.array(rung_streams, dtype=float).T  # (n_rungs, N_LOOP_FRAMES)
    trace = _calibrate_trace(bits, target_fps)
    link = WirelessLink.traced(trace, propagation_ms=3.0)

    session_kwargs = dict(
        n_frames=N_STREAM_FRAMES,
        height=config.height,
        width=config.width,
        target_fps=target_fps,
        display=config.display,
        seed=config.seed,
        rung_streams=rung_streams,
    )
    reports: dict[str, AdaptiveSessionReport] = {}
    for index, rung in enumerate(ladder):
        reports[f"fixed:{rung.name}"] = simulate_adaptive_session(
            scene, link, FixedController(rung=index), start_rung=index, **session_kwargs
        )
    for policy in ("buffer", "throughput"):
        reports[policy] = simulate_adaptive_session(
            scene, link, policy, **session_kwargs
        )
    return AdaptiveResult(
        reports=reports, trace=trace, ladder_names=ladder.names
    )


if __name__ == "__main__":
    print(run(ExperimentConfig(height=128, width=128)).table())
