"""Procedural VR scene substrate (paper Sec. 5.1).

Six named scenes with the luminance/palette properties the paper
reports, stereo sub-frame rendering, value-noise texturing, and the
display geometry that turns gaze into per-pixel eccentricity.
"""

from .display import (
    QUEST2_DISPLAY,
    QUEST2_HIGH_RESOLUTION,
    QUEST2_LOW_RESOLUTION,
    QUEST2_REFRESH_RATES,
    DisplayGeometry,
)
from .gaze import GazeSample, LastSamplePredictor, LinearPredictor, saccade_trace
from .library import SCENE_NAMES, Scene, get_scene, render_scene
from .noise import fractal_noise, value_noise
from .primitives import draw_box, draw_disk, mix_noise, modulate, vertical_gradient

__all__ = [
    "QUEST2_DISPLAY",
    "QUEST2_HIGH_RESOLUTION",
    "QUEST2_LOW_RESOLUTION",
    "QUEST2_REFRESH_RATES",
    "DisplayGeometry",
    "GazeSample",
    "LastSamplePredictor",
    "LinearPredictor",
    "saccade_trace",
    "SCENE_NAMES",
    "Scene",
    "get_scene",
    "render_scene",
    "fractal_noise",
    "value_noise",
    "draw_box",
    "draw_disk",
    "mix_noise",
    "modulate",
    "vertical_gradient",
]
