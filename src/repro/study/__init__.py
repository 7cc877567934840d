"""Simulated human-subject study (paper Sec. 5.2, 6.3, Fig. 14)."""

from .harness import SceneOutcome, StudyConfig, StudyResult, run_user_study
from .observer import (
    PsychometricParameters,
    SimulatedObserver,
    green_masking_factor,
    reliability_factor,
    scene_exceedance,
)

__all__ = [
    "SceneOutcome",
    "StudyConfig",
    "StudyResult",
    "run_user_study",
    "PsychometricParameters",
    "SimulatedObserver",
    "green_masking_factor",
    "reliability_factor",
    "scene_exceedance",
]
