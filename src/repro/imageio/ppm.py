"""Binary PPM (P6) writer — the zero-dependency escape hatch.

PPM is the simplest interchange format every image tool understands;
useful when debugging pipelines where even our PNG writer is suspect.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["write_ppm"]


def write_ppm(path, frame: np.ndarray) -> int:
    """Write an ``(H, W, 3)`` uint8 frame as binary PPM; returns bytes written."""
    arr = np.asarray(frame)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError(f"write_ppm expects (H, W, 3) uint8, got {arr.shape} {arr.dtype}")
    height, width = arr.shape[:2]
    blob = f"P6\n{width} {height}\n255\n".encode("ascii") + arr.tobytes()
    Path(path).write_bytes(blob)
    return len(blob)
