"""Fig. 10 — bandwidth reduction over baselines, per scene.

For each scene the paper plots the bandwidth reduction (relative to the
uncompressed frame) achieved by SCC, BD, PNG and the proposed scheme.
Headline numbers: ours averages 66.9% over NoCom, 50.3% over SCC and
15.6% (up to 20.4%) over BD; PNG beats ours on two scenes.

All methods dispatch through the unified codec registry and share one
:class:`~repro.codecs.context.FrameContext` per frame, so a frame is sRGB
quantized once and tiled once however many codecs sweep it.  The
baseline roster is configurable via ``ExperimentConfig.codec_names``
(the CLI's ``--codecs``); the default is the paper's Fig. 10 set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codecs.context import FrameContext
from ..codecs.registry import get_codec, resolve_codec_name
from ..encoding.accounting import UNCOMPRESSED_BPP
from .common import ExperimentConfig, encoder_for, format_table, render_eval_frames

__all__ = ["BASELINE_NAMES", "SceneBandwidth", "BandwidthResult", "run"]

#: Baseline roster in the paper's plotting order.  Each entry resolves
#: to a registered codec (a test keeps this in sync with the registry).
BASELINE_NAMES = ("NoCom", "SCC", "BD", "PNG")

#: Fig. 10 display names of the canonical codecs; other registry codecs
#: (e.g. ``variable-bd`` via ``--codecs``) are shown under their own name.
_DISPLAY_NAMES = {"nocom": "NoCom", "scc": "SCC", "bd": "BD", "png": "PNG"}

#: Codecs that take the experiment's tile size.
_TILED_CODECS = ("bd", "variable-bd", "temporal-bd")


@dataclass(frozen=True)
class SceneBandwidth:
    """Average bits-per-pixel of every method on one scene."""

    scene: str
    bpp: dict[str, float]  # method name -> bits per pixel

    def reduction(self, method: str) -> float:
        """Bandwidth reduction of ``method`` vs. uncompressed frames."""
        return 1.0 - self.bpp[method] / UNCOMPRESSED_BPP

    def ours_reduction_vs(self, method: str) -> float:
        """Traffic reduction of our scheme relative to ``method``."""
        return 1.0 - self.bpp["Ours"] / self.bpp[method]


@dataclass(frozen=True)
class BandwidthResult:
    """Fig. 10 data across all scenes."""

    scenes: list[SceneBandwidth]

    def methods(self) -> list[str]:
        """Method columns present in this run, "Ours" last."""
        ordered = [m for m in self.scenes[0].bpp if m != "Ours"]
        return ordered + ["Ours"]

    def mean_reduction_vs(self, method: str) -> float:
        return float(np.mean([s.ours_reduction_vs(method) for s in self.scenes]))

    def max_reduction_vs(self, method: str) -> float:
        return float(np.max([s.ours_reduction_vs(method) for s in self.scenes]))

    def png_wins(self) -> int:
        """Scenes where lossless PNG out-compresses our scheme."""
        return sum(1 for s in self.scenes if s.bpp["PNG"] < s.bpp["Ours"])

    def table(self) -> str:
        columns = [m for m in self.methods() if m != "NoCom"]
        headers = ["scene"] + [f"{m} red%" for m in columns]
        rows = [
            [s.scene] + [100.0 * s.reduction(m) for m in columns]
            for s in self.scenes
        ]
        present = set(self.methods())
        summary_parts = [
            f"ours vs {m} {100 * self.mean_reduction_vs(m):.1f}%"
            for m in ("NoCom", "SCC") if m in present
        ]
        if "BD" in present:
            summary_parts.append(
                f"vs BD mean {100 * self.mean_reduction_vs('BD'):.1f}% "
                f"max {100 * self.max_reduction_vs('BD'):.1f}%"
            )
        if "PNG" in present:
            summary_parts.append(f"PNG wins {self.png_wins()}")
        return format_table(headers, rows, precision=1) + "\n" + " | ".join(summary_parts)


def run(config: ExperimentConfig | None = None) -> BandwidthResult:
    """Measure every method on every scene and collate Fig. 10."""
    config = config or ExperimentConfig()
    roster = config.codec_names if config.codec_names else BASELINE_NAMES
    # "Ours" (the configured perceptual encoder) is always measured;
    # requesting "perceptual" in the roster would re-run it with
    # default parameters, so it is folded into the Ours column.
    canonical = [
        name
        for name in (resolve_codec_name(entry) for entry in roster)
        if name != "perceptual"
    ]
    labels = [_DISPLAY_NAMES.get(name, name) for name in canonical]
    codecs = {
        label: get_codec(
            name,
            **({"tile_size": config.tile_size} if name in _TILED_CODECS else {}),
        )
        for label, name in zip(labels, canonical)
    }
    codecs["Ours"] = encoder_for(config)
    eccentricity = config.eccentricity_map()
    n_pixels = config.height * config.width

    scenes = []
    for name in config.scene_names:
        frames = render_eval_frames(config, name)
        # One shared context per frame for the whole codec roster.
        ctxs = [
            FrameContext(frame, eccentricity=eccentricity, display=config.display)
            for frame in frames
        ]
        bpp = {}
        for label, codec in codecs.items():
            codec.reset()
            total = sum(codec.encode(ctx).total_bits for ctx in ctxs)
            bpp[label] = total / (n_pixels * len(frames))
        scenes.append(SceneBandwidth(scene=name, bpp=bpp))
    return BandwidthResult(scenes=scenes)


if __name__ == "__main__":
    print(run().table())
