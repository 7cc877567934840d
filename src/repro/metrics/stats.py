"""Small statistics helpers for experiment reporting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Summary", "summarize"]


@dataclass(frozen=True)
class Summary:
    """Mean / std / min / max of a sample, as experiments report them."""

    mean: float
    std: float
    minimum: float
    maximum: float
    count: int

    def __str__(self) -> str:
        return (
            f"mean={self.mean:.3f} std={self.std:.3f} "
            f"min={self.minimum:.3f} max={self.maximum:.3f} (n={self.count})"
        )


def summarize(values) -> Summary:
    """Summary statistics of a 1-D sample (population std, ddof=0)."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return Summary(
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        count=int(arr.size),
    )


def _geometric_mean(values) -> float:
    """Geometric mean of positive values (compression-ratio friendly)."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot average an empty sample")
    if arr.min() <= 0:
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))
