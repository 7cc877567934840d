"""Per-user calibration: trading compression for a sensitive observer.

The paper's user study found one visual-artist participant whose color
thresholds are tighter than the population average, and proposes
per-user calibration (like IPD adjustment) as the deployment answer
(Sec. 6.5).  This example runs that scenario end to end:

1. sample a small observer population,
2. encode a scene with the population-average model,
3. check who would actually see artifacts,
4. re-encode with each sensitive observer's *calibrated* model and
   show that the artifacts disappear at a modest bandwidth cost.

Run:  python examples/calibrated_observer.py
"""

from __future__ import annotations

import numpy as np

from repro import QUEST2_DISPLAY, FrameContext, PerceptualCodec
from repro.perception.calibration import calibrated_model, sample_population
from repro.scenes.library import render_scene
from repro.study.observer import PsychometricParameters, SimulatedObserver, scene_exceedance


def encode(encoder: PerceptualCodec, frame, eccentricity):
    return encoder.encode(FrameContext(frame, eccentricity=eccentricity))


def main() -> None:
    height = width = 160
    frame = render_scene("office", height, width, eye="left")
    eccentricity = QUEST2_DISPLAY.eccentricity_map(height, width)
    params = PsychometricParameters()

    rng = np.random.default_rng(11)
    population = sample_population(6, rng, sensitive_fraction=0.35)

    average_encoder = PerceptualCodec()
    average_result = encode(average_encoder, frame, eccentricity)
    exceedance = scene_exceedance(
        [frame], [average_result.adjusted_frame], eccentricity,
        model=average_encoder.model, params=params,
    )
    print(
        f"population-average encoding: "
        f"{average_result.breakdown.bits_per_pixel:.2f} bpp "
        f"({average_result.bandwidth_reduction_vs_bd:.1%} vs BD)"
    )
    print(
        f"{'observer':>9} {'sens.':>6} {'p(detect)':>10} "
        f"{'calibrated bpp':>15} {'p(after)':>9}"
    )

    for profile in population:
        observer = SimulatedObserver(profile, params)
        p_detect = observer.detection_probability(exceedance)
        calibrated = PerceptualCodec(model=calibrated_model(profile))
        result = encode(calibrated, frame, eccentricity)
        p_after = SimulatedObserver(profile, params).detection_probability(
            scene_exceedance(
                [frame], [result.adjusted_frame], eccentricity,
                model=average_encoder.model, params=params,
            )
            # Shifts now respect the observer's own (scaled) ellipsoids,
            # so their personal exceedance drops accordingly.
        )
        print(
            f"{profile.name:>9} {profile.sensitivity:6.2f} {p_detect:10.2f} "
            f"{result.breakdown.bits_per_pixel:15.2f} {p_after:9.2f}"
        )

    print(
        "\nCalibrated encoders shrink the ellipsoids for sensitive users, "
        "spending a little bandwidth to keep them artifact-free."
    )


if __name__ == "__main__":
    main()
