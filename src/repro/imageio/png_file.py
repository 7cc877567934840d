"""Minimal real PNG file writer (RGB8, no dependencies).

The baselines package already implements PNG's *compression* (filters +
DEFLATE) for bandwidth accounting; this module adds the container —
signature, IHDR/IDAT/IEND chunks with CRCs — so frames can be written
as genuine ``.png`` files any viewer opens.  Used by the Fig. 9
example to export original/adjusted image pairs for visual inspection.
The tests read the files back with a reader of their own.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from ..baselines.png_codec import png_encode

__all__ = ["write_png"]

_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_COLOR_TYPE_RGB = 2


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def write_png(path, frame: np.ndarray, level: int = 6) -> int:
    """Write an ``(H, W, 3)`` uint8 frame as a standard PNG file.

    Returns the number of bytes written.  The IDAT payload is the
    bandwidth baseline's own :func:`png_encode` payload, so file sizes
    match the accounting (plus the fixed container overhead).
    """
    arr = np.asarray(frame)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError(f"write_png expects (H, W, 3) uint8, got {arr.shape} {arr.dtype}")
    height, width = arr.shape[:2]
    ihdr = struct.pack(">IIBBBBB", width, height, 8, _COLOR_TYPE_RGB, 0, 0, 0)
    blob = (
        _SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", png_encode(arr, level).payload)
        + _chunk(b"IEND", b"")
    )
    path = Path(path)
    path.write_bytes(blob)
    return len(blob)
