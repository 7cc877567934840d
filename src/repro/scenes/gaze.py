"""Synthetic gaze traces.

The paper's user study attributed some reported artifacts to "rendering
lag or slow gaze detection" during rapid eye movement (Sec. 6.3).
:func:`saccade_trace` generates the eye movement behind that effect: a
synthetic trace alternating fixations with ballistic saccades (the
standard two-state model of free viewing).  A fleet client that
carries a trace fixates at its latest sample
(:meth:`repro.streaming.fleet.ClientConfig.fixation_at`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GazeSample", "saccade_trace"]


@dataclass(frozen=True)
class GazeSample:
    """One gaze-tracker sample: time and normalized fixation point."""

    time_s: float
    x: float
    y: float

    def clamped(self) -> "GazeSample":
        return GazeSample(
            self.time_s, float(np.clip(self.x, 0.0, 1.0)), float(np.clip(self.y, 0.0, 1.0))
        )


def saccade_trace(
    duration_s: float,
    sample_rate_hz: float = 120.0,
    rng: np.random.Generator | None = None,
    fixation_mean_s: float = 0.35,
    saccade_duration_s: float = 0.05,
) -> list[GazeSample]:
    """Generate a fixation/saccade gaze trace in normalized coordinates.

    Fixations hold a point (with tiny tremor) for an exponentially
    distributed duration, then a ballistic saccade moves to a new
    uniform target over ``saccade_duration_s`` following a smooth
    minimum-jerk profile — the standard kinematics of free viewing.
    """
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    if sample_rate_hz <= 0:
        raise ValueError(f"sample_rate_hz must be positive, got {sample_rate_hz}")
    rng = rng if rng is not None else np.random.default_rng(0)

    dt = 1.0 / sample_rate_hz
    samples: list[GazeSample] = []
    time = 0.0
    position = np.array([0.5, 0.5])
    while time < duration_s:
        # Fixation with micro-tremor.
        hold = rng.exponential(fixation_mean_s)
        end = min(time + hold, duration_s)
        while time < end:
            tremor = rng.normal(0.0, 0.002, 2)
            samples.append(
                GazeSample(time, *(position + tremor)).clamped()
            )
            time += dt
        if time >= duration_s:
            break
        # Ballistic saccade to a new target (minimum-jerk profile).
        target = rng.uniform(0.1, 0.9, 2)
        start = position.copy()
        saccade_end = min(time + saccade_duration_s, duration_s)
        saccade_start = time
        while time < saccade_end:
            progress = (time - saccade_start) / saccade_duration_s
            smooth = progress**3 * (10 - 15 * progress + 6 * progress**2)
            point = start + (target - start) * min(smooth, 1.0)
            samples.append(GazeSample(time, *point).clamped())
            time += dt
        position = target
    return samples
