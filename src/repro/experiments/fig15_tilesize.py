"""Fig. 15 — tile-size sensitivity of the compression rate.

The paper sweeps tile sizes T4..T16 and finds the bandwidth reduction
(vs. uncompressed) peaks at 4x4 and falls below plain 4x4 BD beyond
8x8: bigger tiles amortize base pixels but must accommodate the worst
pixel pair, eroding the adjustment opportunity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codecs.context import FrameContext
from ..codecs.registry import get_codec
from ..encoding.accounting import UNCOMPRESSED_BPP
from .common import ExperimentConfig, encoder_for, format_table, render_eval_frames

__all__ = ["TileSweepResult", "run", "DEFAULT_TILE_SIZES"]

#: Tile sizes of the paper's sweep.
DEFAULT_TILE_SIZES = (4, 6, 8, 10, 12, 16)


@dataclass(frozen=True)
class TileSweepResult:
    """Reduction vs. NoCom per scene: BD reference plus our sweep."""

    tile_sizes: tuple[int, ...]
    bd_reduction: dict[str, float]  # scene -> BD(4x4) reduction
    ours_reduction: dict[str, dict[int, float]]  # scene -> tile -> reduction

    def best_tile_size(self, scene: str) -> int:
        by_tile = self.ours_reduction[scene]
        return max(by_tile, key=by_tile.get)

    def crossover_tile_sizes(self, scene: str) -> list[int]:
        """Tile sizes where our scheme falls below the BD reference."""
        return [
            t for t in self.tile_sizes
            if self.ours_reduction[scene][t] < self.bd_reduction[scene]
        ]

    def table(self) -> str:
        headers = ["scene", "BD"] + [f"T{t}" for t in self.tile_sizes]
        rows = [
            [scene, 100.0 * self.bd_reduction[scene]]
            + [100.0 * self.ours_reduction[scene][t] for t in self.tile_sizes]
            for scene in self.bd_reduction
        ]
        return format_table(headers, rows, precision=1)


def run(
    config: ExperimentConfig | None = None,
    tile_sizes: tuple[int, ...] = DEFAULT_TILE_SIZES,
) -> TileSweepResult:
    """Sweep our scheme over tile sizes, with 4x4 BD as the reference."""
    if not tile_sizes:
        raise ValueError("need at least one tile size")
    config = config or ExperimentConfig()
    eccentricity = config.eccentricity_map()
    bd = get_codec("bd", tile_size=4)

    bd_reduction: dict[str, float] = {}
    ours_reduction: dict[str, dict[int, float]] = {}
    for name in config.scene_names:
        # One context per frame: the BD reference and every tile size share it.
        ctxs = [
            FrameContext(f, eccentricity=eccentricity) for f in render_eval_frames(config, name)
        ]
        bd_bpp = np.mean([bd.encode(ctx).bits_per_pixel for ctx in ctxs])
        bd_reduction[name] = 1.0 - float(bd_bpp) / UNCOMPRESSED_BPP
        by_tile: dict[int, float] = {}
        for tile in tile_sizes:
            encoder = encoder_for(config, tile_size=tile)
            bpp = np.mean([encoder.encode(ctx).bits_per_pixel for ctx in ctxs])
            by_tile[tile] = 1.0 - float(bpp) / UNCOMPRESSED_BPP
        ours_reduction[name] = by_tile
    return TileSweepResult(
        tile_sizes=tuple(tile_sizes),
        bd_reduction=bd_reduction,
        ours_reduction=ours_reduction,
    )


if __name__ == "__main__":
    print(run().table())
