"""Per-field bit-level stream writer and reader (test oracle).

The Base+Delta codec produces fields of non-byte widths (4-bit delta
widths, w-bit deltas), so encoded frames are genuine bitstreams.  These
classes implement MSB-first bit packing one field at a time; the writer
pads the final byte with zeros, and the reader tracks its position
exactly so callers can assert they consumed what they produced.

This is the operational definition of the bit format that the
vectorized kernels of :mod:`repro.encoding.packing` reproduce: the
reference BD paths in ``bd_reference.py`` write and read through it,
and ``test_packing.py`` holds the kernels byte-identical to it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitWriter", "BitReader"]


class BitWriter:
    """Accumulate an MSB-first bitstream."""

    def __init__(self):
        self._bytes = bytearray()
        self._current = 0
        self._filled = 0  # bits used in _current

    def write(self, value: int, width: int) -> None:
        """Append ``value`` as a ``width``-bit unsigned field."""
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if width == 0:
            return
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        remaining = width
        while remaining > 0:
            take = min(8 - self._filled, remaining)
            chunk = (value >> (remaining - take)) & ((1 << take) - 1)
            self._current = (self._current << take) | chunk
            self._filled += take
            remaining -= take
            if self._filled == 8:
                self._bytes.append(self._current)
                self._current = 0
                self._filled = 0

    def write_many(self, values, width: int) -> None:
        """Append a sequence of equal-width fields."""
        for value in values:
            self.write(int(value), width)

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return len(self._bytes) * 8 + self._filled

    def getvalue(self) -> bytes:
        """Return the stream, zero-padding the final partial byte."""
        out = bytearray(self._bytes)
        if self._filled:
            out.append(self._current << (8 - self._filled))
        return bytes(out)


class BitReader:
    """Consume an MSB-first bitstream produced by :class:`BitWriter`."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0  # bit position

    def read(self, width: int) -> int:
        """Read a ``width``-bit unsigned field."""
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if width == 0:
            return 0
        if self._pos + width > len(self._data) * 8:
            raise EOFError(
                f"bitstream exhausted: need {width} bits at position {self._pos}, "
                f"stream has {len(self._data) * 8}"
            )
        value = 0
        remaining = width
        while remaining > 0:
            byte_index, bit_offset = divmod(self._pos, 8)
            take = min(8 - bit_offset, remaining)
            byte = self._data[byte_index]
            chunk = (byte >> (8 - bit_offset - take)) & ((1 << take) - 1)
            value = (value << take) | chunk
            self._pos += take
            remaining -= take
        return value

    def read_many(self, count: int, width: int) -> "np.ndarray":
        """Read ``count`` equal-width fields into an int64 array.

        Returning an array (rather than a list of Python ints) lets
        callers apply the fields in bulk — ``base + values`` in the BD
        decoders adds whole delta runs without allocating per-pixel
        Python integers.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return np.fromiter(
            (self.read(width) for _ in range(count)), dtype=np.int64, count=count
        )

    @property
    def bit_position(self) -> int:
        """Bits consumed so far."""
        return self._pos
