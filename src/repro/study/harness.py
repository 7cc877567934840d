"""User-study harness (paper Sec. 5.2 / 6.3, Fig. 14).

Reproduces the protocol shape of the paper's study: every participant
views every scene (a short free-viewing sequence) once, in randomized
order, and reports whether they saw artifacts.  The paper reports, per
scene, how many of the 11 participants did *not* notice artifacts.

Our participants are :class:`~repro.study.observer.SimulatedObserver`
instances drawn from a population with realistic sensitivity spread;
each scene's stimulus is actually encoded with the perceptual codec
and the per-pixel color shifts drive detection.  The harness is
deterministic in its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..codecs.context import FrameContext
from ..codecs.wrappers import PerceptualCodec
from ..perception.calibration import sample_population
from ..scenes.display import QUEST2_DISPLAY, DisplayGeometry
from ..scenes.library import SCENE_NAMES, get_scene
from .observer import PsychometricParameters, SimulatedObserver, scene_exceedance

__all__ = ["StudyConfig", "SceneOutcome", "StudyResult", "run_user_study"]


@dataclass(frozen=True)
class StudyConfig:
    """Parameters of a simulated study run."""

    n_observers: int = 11
    height: int = 192
    width: int = 192
    n_frames: int = 3
    seed: int = 7
    scene_names: tuple[str, ...] = SCENE_NAMES
    display: DisplayGeometry = QUEST2_DISPLAY
    psychometric: PsychometricParameters = PsychometricParameters()

    def __post_init__(self):
        if self.n_observers <= 0:
            raise ValueError(f"n_observers must be positive, got {self.n_observers}")
        if self.n_frames <= 0:
            raise ValueError(f"n_frames must be positive, got {self.n_frames}")


@dataclass(frozen=True)
class SceneOutcome:
    """Per-scene study outcome.

    ``not_noticing`` is the count the paper's Fig. 14 plots: observers
    who saw no artifacts.
    """

    scene: str
    exceedance: float
    detection_probabilities: list[float]
    noticed: list[bool]

    @property
    def n_observers(self) -> int:
        return len(self.noticed)

    @property
    def not_noticing(self) -> int:
        return sum(1 for outcome in self.noticed if not outcome)


@dataclass(frozen=True)
class StudyResult:
    """Full study outcome across scenes and observers."""

    outcomes: list[SceneOutcome]
    observer_sensitivities: list[float] = field(default_factory=list)

    @property
    def mean_noticing(self) -> float:
        """Average number of observers noticing artifacts per scene
        (the paper reports 2.8 of 11, std 1.5)."""
        return float(
            np.mean([o.n_observers - o.not_noticing for o in self.outcomes])
        )

    @property
    def std_noticing(self) -> float:
        return float(
            np.std([o.n_observers - o.not_noticing for o in self.outcomes])
        )

    def by_scene(self) -> dict[str, SceneOutcome]:
        return {outcome.scene: outcome for outcome in self.outcomes}


def run_user_study(
    encoder: PerceptualCodec | None = None, config: StudyConfig | None = None
) -> StudyResult:
    """Run the simulated study and collate Fig. 14's statistics.

    Each scene is rendered (``n_frames`` animation frames, left eye),
    encoded with the perceptual codec at a centered gaze, and shown
    to every observer; detection draws are independent per observer
    and scene, as the paper's trials were.
    """
    config = config or StudyConfig()
    encoder = encoder if encoder is not None else PerceptualCodec()
    rng = np.random.default_rng(config.seed)
    profiles = sample_population(config.n_observers, rng)
    observers = [
        SimulatedObserver(profile=p, params=config.psychometric) for p in profiles
    ]
    eccentricity = config.display.eccentricity_map(config.height, config.width)

    outcomes = []
    for name in config.scene_names:
        scene = get_scene(name)
        originals, adjusteds = [], []
        for frame_index in range(config.n_frames):
            frame = scene.render(config.height, config.width, frame=frame_index, eye="left")
            result = encoder.encode(FrameContext(frame, eccentricity=eccentricity))
            originals.append(frame)
            adjusteds.append(result.adjusted_frame)
        exceedance = scene_exceedance(
            originals, adjusteds, eccentricity, model=encoder.model,
            params=config.psychometric,
        )
        probabilities = [obs.detection_probability(exceedance) for obs in observers]
        noticed = [obs.notices_artifacts(exceedance, rng) for obs in observers]
        outcomes.append(
            SceneOutcome(
                scene=name,
                exceedance=exceedance,
                detection_probabilities=probabilities,
                noticed=noticed,
            )
        )
    return StudyResult(
        outcomes=outcomes,
        observer_sensitivities=[p.sensitivity for p in profiles],
    )
