"""PNG-class lossless image codec (the paper's PNG baseline, Sec. 5.3).

A faithful software implementation of PNG's compression pipeline —
per-row adaptive filtering (None/Sub/Up/Average/Paeth, chosen by the
minimum-sum-of-absolute-differences heuristic the PNG spec recommends)
followed by DEFLATE — without the container chunks, which contribute
nothing to the bandwidth comparison.  The paper uses PNG as the
"offline lossless" reference point: high compression, far too slow for
real-time DRAM traffic (Sec. 5.3 cites a 20 FPS hardware IP).

Round-trip is exact; :func:`png_compressed_bits` is the accounting
entry the experiments use.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "png_filter_rows",
    "png_unfilter_rows",
    "png_encode",
    "png_decode",
    "png_compressed_bits",
    "PNGEncoded",
]


def png_filter_rows(frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply per-row adaptive PNG filtering.

    Returns ``(filter_ids, filtered)`` where ``filter_ids`` is the
    chosen filter per row and ``filtered`` the filtered bytes with the
    same shape as the flattened-row input.

    All five candidate filters read *unfiltered* neighbor rows (the
    PNG spec filters against raw scanlines), so the whole frame is
    filtered in one pass: every candidate's residuals are computed in
    ``uint8``, which wraps modulo 256 exactly as residual bytes do, and
    costed per row; one ``argmin`` then picks each row's filter (the
    first of equal costs) and the chosen rows are gathered.  No
    per-row Python.
    """
    if frame.ndim != 3 or frame.dtype != np.uint8:
        raise ValueError("png_filter_rows expects a (H, W, C) uint8 frame")
    height, width, channels = frame.shape
    row_bytes = width * channels
    # Zero-padded above and to the left, so the neighbors are views.
    padded = np.zeros((height + 1, row_bytes + channels), dtype=np.uint8)
    padded[1:, channels:] = frame.reshape(height, row_bytes)
    rows = padded[1:, channels:]
    left = padded[1:, :-channels]
    up = padded[:-1, channels:]
    upleft = padded[:-1, :-channels]

    residuals = np.empty((5, height, row_bytes), dtype=np.uint8)
    residuals[0] = rows
    np.subtract(rows, left, out=residuals[1])
    np.subtract(rows, up, out=residuals[2])
    # floor((left + up) / 2) without leaving uint8.
    average = left & up
    average += (left ^ up) >> 1
    np.subtract(rows, average, out=residuals[3])
    # Paeth: with p = left + up - upleft, the spec's distances
    # pa = |p - left|, pb = |p - up| and pc = |p - upleft| are
    # |up - upleft|, |left - upleft| and |(up - upleft) + (left - upleft)|,
    # all within int16.
    pa = up.astype(np.int16) - upleft
    pb = left.astype(np.int16) - upleft
    pc = pa + pb
    np.abs(pa, out=pa)
    np.abs(pb, out=pb)
    np.abs(pc, out=pc)
    # Select by 0xFF/0x00 byte masks, which is cheaper than np.where.
    take_up = -(pb <= pc).view(np.uint8)
    predictor = upleft ^ ((up ^ upleft) & take_up)
    take_left = -((pa <= pb) & (pa <= pc)).view(np.uint8)
    predictor ^= (left ^ predictor) & take_left
    np.subtract(rows, predictor, out=residuals[4])

    # Spec heuristic: minimize the sum of absolute signed residuals.
    # For a residual byte e, |signed(e)| == min(e, 256 - e), and in
    # uint8 256 - e is -e.
    magnitude = -residuals
    np.minimum(magnitude, residuals, out=magnitude)
    costs = magnitude.sum(axis=2, dtype=np.int64)  # (5, height)
    filter_ids = np.argmin(costs, axis=0).astype(np.uint8)
    filtered = residuals[filter_ids, np.arange(height)]
    return filter_ids, filtered


def _unfilter_row_sequential(
    data: np.ndarray, previous: np.ndarray, mode: int, channels: int
) -> np.ndarray:
    """Reconstruct one Average/Paeth row, scanning left to right.

    These two filters predict from the *reconstructed* left neighbor,
    so the scan over a row is genuinely sequential.  Plain-int
    arithmetic over Python lists beats per-pixel NumPy slicing here —
    the operands are single bytes, far below vectorization's break-even.
    """
    d = data.tolist()
    prev = previous.tolist()
    row = [0] * len(d)
    if mode == 3:
        for x in range(len(d)):
            left = row[x - channels] if x >= channels else 0
            row[x] = (d[x] + (left + prev[x]) // 2) & 0xFF
    else:
        for x in range(len(d)):
            left = row[x - channels] if x >= channels else 0
            up = prev[x]
            upleft = prev[x - channels] if x >= channels else 0
            p = left + up - upleft
            pa = abs(p - left)
            pb = abs(p - up)
            pc = abs(p - upleft)
            if pa <= pb and pa <= pc:
                pred = left
            elif pb <= pc:
                pred = up
            else:
                pred = upleft
            row[x] = (d[x] + pred) & 0xFF
    return np.array(row, dtype=np.uint8)


def png_unfilter_rows(
    filter_ids: np.ndarray, filtered: np.ndarray, shape: tuple[int, int, int]
) -> np.ndarray:
    """Invert :func:`png_filter_rows`, reconstructing the exact frame.

    None rows are batch-copied and Sub rows batch-reconstructed (Sub
    only needs the decoded left neighbor, a wrapping prefix sum along
    the row, independent of other rows).  Runs of consecutive Up rows
    reconstruct in one wrapping ``np.add.accumulate`` down the run.
    Only Average and Paeth rows — whose predictors need the decoded
    left neighbor *and* the row above — fall back to the sequential
    per-pixel scan.
    """
    height, width, channels = shape
    if filtered.shape != (height, width * channels):
        raise ValueError(
            f"filtered rows {filtered.shape} do not match shape {shape}"
        )
    ids = np.asarray(filter_ids, dtype=np.int64)
    bad = np.nonzero(ids > 4)[0]
    if bad.size:
        raise ValueError(f"unknown PNG filter id {int(ids[bad[0]])}")
    data8 = np.asarray(filtered, dtype=np.uint8)
    rows = np.empty((height, width * channels), dtype=np.uint8)

    none_rows = np.nonzero(ids == 0)[0]
    rows[none_rows] = data8[none_rows]
    sub_rows = np.nonzero(ids == 1)[0]
    if sub_rows.size:
        # recon[x] = (data[x] + recon[x - channels]) mod 256: a wrapping
        # per-channel prefix sum along the row.
        sub = data8[sub_rows].reshape(sub_rows.size, width, channels)
        rows[sub_rows] = np.add.accumulate(sub, axis=1).reshape(sub_rows.size, -1)

    previous = np.zeros(width * channels, dtype=np.uint8)
    y = 0
    while y < height:
        mode = int(ids[y])
        if mode in (0, 1):
            y += 1
        elif mode == 2:
            run_end = y
            while run_end + 1 < height and ids[run_end + 1] == 2:
                run_end += 1
            # Each Up row adds its residuals to the row above, so a run
            # reconstructs as one wrapping cumulative sum seeded with
            # the last reconstructed row.
            block = np.concatenate([previous[None, :], data8[y : run_end + 1]])
            rows[y : run_end + 1] = np.add.accumulate(block, axis=0)[1:]
            y = run_end + 1
        else:
            rows[y] = _unfilter_row_sequential(data8[y], previous, mode, channels)
            y += 1
        previous = rows[y - 1]
    return rows.reshape(shape)


@dataclass(frozen=True)
class PNGEncoded:
    """A PNG-compressed frame: the DEFLATE payload plus geometry."""

    payload: bytes
    shape: tuple[int, int, int]

    @property
    def total_bits(self) -> int:
        """Compressed size in bits, including the per-row filter bytes
        (stored inside the payload, as in real PNG) and a small header."""
        return len(self.payload) * 8 + 40


def png_encode(frame: np.ndarray, level: int = 6) -> PNGEncoded:
    """Compress an ``(H, W, C)`` uint8 frame PNG-style."""
    filter_ids, filtered = png_filter_rows(frame)
    height, row_bytes = filtered.shape
    stream = np.empty((height, 1 + row_bytes), dtype=np.uint8)
    stream[:, 0] = filter_ids
    stream[:, 1:] = filtered
    return PNGEncoded(payload=zlib.compress(stream.tobytes(), level), shape=frame.shape)


def png_decode(encoded: PNGEncoded) -> np.ndarray:
    """Exactly reconstruct the frame from :func:`png_encode` output."""
    height, width, channels = encoded.shape
    stream = zlib.decompress(encoded.payload)
    row_bytes = width * channels
    expected = height * (1 + row_bytes)
    if len(stream) != expected:
        raise ValueError(f"corrupt PNG payload: {len(stream)} bytes, expected {expected}")
    scanlines = np.frombuffer(stream, np.uint8).reshape(height, 1 + row_bytes)
    return png_unfilter_rows(scanlines[:, 0], scanlines[:, 1:], encoded.shape)


def png_compressed_bits(frame: np.ndarray, level: int = 6) -> int:
    """Compressed size in bits — the PNG series of paper Fig. 10."""
    return png_encode(frame, level=level).total_bits
