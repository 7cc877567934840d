"""Reference readers: the oracles of the package's PNG and PPM writers.

``repro.imageio`` only writes image files; nothing in the package reads
them back.  These readers, once part of the package, parse exactly the
subset the writers produce (8-bit RGB, non-interlaced, one IDAT
sequence for PNG; binary P6 with maxval 255 for PPM) and reject
anything else, so ``tests/test_imageio.py`` can hold every written file
to a byte-exact round trip.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from repro.baselines.png_codec import png_unfilter_rows

__all__ = ["read_png", "read_ppm"]

_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_COLOR_TYPE_RGB = 2


def read_png(path) -> np.ndarray:
    """Read back a PNG written by ``write_png`` (8-bit RGB only)."""
    data = Path(path).read_bytes()
    if not data.startswith(_SIGNATURE):
        raise ValueError(f"{path}: not a PNG file")
    offset = len(_SIGNATURE)
    width = height = None
    idat = bytearray()
    while offset < len(data):
        (length,) = struct.unpack_from(">I", data, offset)
        tag = data[offset + 4 : offset + 8]
        payload = data[offset + 8 : offset + 8 + length]
        expected_crc = struct.unpack_from(">I", data, offset + 8 + length)[0]
        if zlib.crc32(tag + payload) & 0xFFFFFFFF != expected_crc:
            raise ValueError(f"{path}: CRC mismatch in {tag!r} chunk")
        if tag == b"IHDR":
            width, height, depth, color_type, _, _, interlace = struct.unpack(
                ">IIBBBBB", payload
            )
            if depth != 8 or color_type != _COLOR_TYPE_RGB or interlace != 0:
                raise ValueError(
                    f"{path}: unsupported PNG (need 8-bit RGB non-interlaced)"
                )
        elif tag == b"IDAT":
            idat.extend(payload)
        elif tag == b"IEND":
            break
        offset += 12 + length
    if width is None or not idat:
        raise ValueError(f"{path}: missing IHDR or IDAT")

    stream = zlib.decompress(bytes(idat))
    row_bytes = width * 3
    if len(stream) != height * (1 + row_bytes):
        raise ValueError(f"{path}: IDAT length mismatch")
    filter_ids = np.empty(height, dtype=np.uint8)
    filtered = np.empty((height, row_bytes), dtype=np.uint8)
    for y in range(height):
        start = y * (1 + row_bytes)
        filter_ids[y] = stream[start]
        filtered[y] = np.frombuffer(stream, np.uint8, row_bytes, start + 1)
    return png_unfilter_rows(filter_ids, filtered, (height, width, 3))


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM written by ``write_ppm``."""
    data = Path(path).read_bytes()
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6":
        raise ValueError(f"{path}: not a binary PPM (P6) file")
    try:
        width, height = (int(v) for v in parts[1].split())
        maxval = int(parts[2])
    except ValueError as error:
        raise ValueError(f"{path}: malformed PPM header") from error
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PPM supported, got maxval {maxval}")
    pixels = np.frombuffer(parts[3], dtype=np.uint8, count=height * width * 3)
    return pixels.reshape(height, width, 3).copy()
