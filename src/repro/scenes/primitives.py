"""Drawing primitives for the procedural scene generator.

All primitives operate on linear-RGB float frames in ``[0, 1]`` and are
deliberately simple: gradients, axis-aligned boxes, disks and noise
modulation are enough to produce framebuffer content with controlled
local statistics (smooth regions, hard edges, texture), which is what
the compression experiments need.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "vertical_gradient",
    "draw_box",
    "draw_disk",
    "modulate",
    "mix_noise",
]


def vertical_gradient(shape: tuple[int, int], top_color, bottom_color) -> np.ndarray:
    """Linear vertical blend from ``top_color`` to ``bottom_color``."""
    height, width = shape
    t = np.linspace(0.0, 1.0, height)[:, None, None]
    top = np.asarray(top_color, dtype=np.float64)
    bottom = np.asarray(bottom_color, dtype=np.float64)
    return np.broadcast_to((1 - t) * top + t * bottom, (height, width, 3)).copy()


def _clip_span(start: float, stop: float, limit: int) -> tuple[int, int]:
    lo = min(max(round(start), 0), limit)
    hi = min(max(round(stop), 0), limit)
    return lo, max(lo, hi)


def draw_box(frame: np.ndarray, y0, y1, x0, x1, color, opacity: float = 1.0) -> None:
    """Blend an axis-aligned rectangle into ``frame`` in place.

    Coordinates are in pixels and may exceed the frame; they are
    clipped.  ``opacity`` blends with the existing content.
    """
    if not 0.0 <= opacity <= 1.0:
        raise ValueError(f"opacity must be in [0, 1], got {opacity}")
    ya, yb = _clip_span(y0, y1, frame.shape[0])
    xa, xb = _clip_span(x0, x1, frame.shape[1])
    if ya == yb or xa == xb:
        return
    region = frame[ya:yb, xa:xb]
    region *= 1.0 - opacity
    region += opacity * np.asarray(color, dtype=np.float64)


def draw_disk(frame: np.ndarray, cy, cx, radius, color, opacity: float = 1.0) -> None:
    """Blend a filled disk into ``frame`` in place (clipped)."""
    if radius <= 0:
        return
    if not 0.0 <= opacity <= 1.0:
        raise ValueError(f"opacity must be in [0, 1], got {opacity}")
    ya, yb = _clip_span(cy - radius, cy + radius + 1, frame.shape[0])
    xa, xb = _clip_span(cx - radius, cx + radius + 1, frame.shape[1])
    if ya == yb or xa == xb:
        return
    ys = np.arange(ya, yb)[:, None]
    xs = np.arange(xa, xb)[None, :]
    mask = (ys - cy) ** 2 + (xs - cx) ** 2 <= radius**2
    region = frame[ya:yb, xa:xb]
    blend = opacity * mask[..., None]
    region *= 1.0 - blend
    region += blend * np.asarray(color, dtype=np.float64)


def modulate(frame: np.ndarray, field: np.ndarray, amplitude: float) -> np.ndarray:
    """Multiply a frame by ``1 + amplitude * (field - 0.5)`` per pixel.

    ``field`` is a ``(H, W)`` texture in ``[0, 1]``; the result is
    clipped back to the unit cube.  This is how scenes acquire surface
    texture without shifting their mean color.
    """
    if field.shape != frame.shape[:2]:
        raise ValueError(f"field {field.shape} does not match frame {frame.shape[:2]}")
    out = frame * (1.0 + amplitude * (field[..., None] - 0.5))
    return np.clip(out, 0.0, 1.0)


def mix_noise(frame: np.ndarray, field: np.ndarray, color, amount: float) -> np.ndarray:
    """Blend a color into the frame with per-pixel weight ``amount * field``."""
    if field.shape != frame.shape[:2]:
        raise ValueError(f"field {field.shape} does not match frame {frame.shape[:2]}")
    weight = np.clip(amount * field, 0.0, 1.0)[..., None]
    return np.clip(frame * (1 - weight) + np.asarray(color) * weight, 0.0, 1.0)
