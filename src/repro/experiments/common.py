"""Shared configuration and reporting helpers for all experiments.

Every experiment runner takes an :class:`ExperimentConfig` and returns
a result dataclass with a ``table()`` method producing the rows the
paper's corresponding figure plots.  The default configuration runs at
a laptop-friendly resolution; the *content statistics* that drive
compression (per-tile ranges) are resolution-stable by construction of
the scene generator, so shapes match the paper's full-resolution runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..codecs.wrappers import PerceptualCodec
from ..perception.model import DiscriminationModel, default_model
from ..scenes.display import QUEST2_DISPLAY, DisplayGeometry
from ..scenes.library import SCENE_NAMES, get_scene

__all__ = ["ExperimentConfig", "format_table", "render_eval_frames", "encoder_for"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the experiment runners.

    Attributes
    ----------
    height, width:
        Evaluation frame size.  Experiments report per-pixel statistics
        so this mostly controls runtime, not conclusions.
    n_frames:
        Animation frames averaged per scene.
    tile_size:
        BD/adjustment tile edge (4 = the paper's hardware).
    model_kind:
        ``"parametric"`` or ``"rbf"`` discrimination model.
    scene_names:
        Scenes to evaluate, in plotting order.
    seed:
        Master seed for anything stochastic (the study harness).
    codec_names:
        Optional codec-registry filter for the sweep experiments
        (fig10's baseline roster); ``None`` runs each experiment's
        default roster.  Set from the CLI's ``--codecs`` flag.
    """

    height: int = 256
    width: int = 256
    n_frames: int = 2
    tile_size: int = 4
    model_kind: str = "parametric"
    scene_names: tuple[str, ...] = SCENE_NAMES
    display: DisplayGeometry = QUEST2_DISPLAY
    seed: int = 7
    codec_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.height < 8 or self.width < 8:
            raise ValueError(f"evaluation frames must be >= 8x8, got {self.height}x{self.width}")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")

    def eccentricity_map(self) -> np.ndarray:
        """Centered-gaze eccentricity map for the configured frame size."""
        return self.display.eccentricity_map(self.height, self.width)

    def model(self) -> DiscriminationModel:
        return default_model(self.model_kind)


def encoder_for(config: ExperimentConfig, **overrides) -> PerceptualCodec:
    """Build the perceptual codec the experiments evaluate."""
    kwargs = {"model": config.model(), "tile_size": config.tile_size}
    kwargs.update(overrides)
    return PerceptualCodec(**kwargs)


def render_eval_frames(config: ExperimentConfig, scene_name: str) -> list[np.ndarray]:
    """The evaluation frames for one scene: left-eye, animated."""
    scene = get_scene(scene_name)
    return [
        scene.render(config.height, config.width, frame=index, eye="left")
        for index in range(config.n_frames)
    ]


def format_table(headers: Sequence[str], rows: Sequence[Sequence], precision: int = 2) -> str:
    """Render a small ASCII table (the benches print these)."""
    def fmt(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.{precision}f}"
        return str(cell)

    text_rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in text_rows)) if text_rows else len(header)
        for i, header in enumerate(headers)
    ]
    lines = [
        "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in text_rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)
