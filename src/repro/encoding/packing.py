"""NumPy-vectorized MSB-first bit packing/unpacking kernels.

The library's bitstreams are sequences of unsigned fields written
MSB-first, with the final partial byte zero-padded.  The test suite
keeps that format's operational definition, a per-field
``BitWriter``/``BitReader`` (``tests/encoding/bitio.py``): exact, but
one interpreter-level call per tile x channel x pixel — millions per
frame on the encode-heavy paths (fig10/fig11 sweeps, the fleet and
adaptive engines, ladder calibration).

This module expresses the same format as array kernels: a field
sequence becomes a flat ``uint8`` array of 0/1 *bits* built by
bit-plane decomposition (shift-and-mask against every bit position at
once), and ``np.packbits``/``np.unpackbits`` convert between bit
arrays and the byte stream.  ``np.packbits`` zero-fills the final
partial byte exactly like ``BitWriter.getvalue``, so streams produced
here are byte-identical to the per-field writer — property tests in
``tests/encoding/test_packing.py`` pin that equivalence.

Two field layouts are supported:

* equal width — :func:`pack_fields` / :func:`unpack_fields`, the
  per-run shape of fixed-width Base+Delta deltas;
* per-run variable width via segment descriptors —
  :func:`pack_segments` / :func:`unpack_segments`, where segment ``s``
  carries ``counts[s]`` fields of ``widths[s]`` bits.  A whole BD
  frame (header, per-tile bases, width fields, delta runs) is one such
  descriptor list.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bits_to_bytes",
    "bytes_to_bits",
    "pack_fields",
    "unpack_fields",
    "pack_segments",
    "unpack_segments",
    "scatter_fields",
    "scatter_field_runs",
    "gather_fields",
    "gather_field_runs",
    "sliding_field_values",
]


def bytes_to_bits(data) -> np.ndarray:
    """Expand a byte stream into its MSB-first bit array (0/1 uint8)."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits) -> bytes:
    """Pack a 0/1 bit array MSB-first, zero-padding the final byte.

    The padding matches the per-field reference writer's
    (``BitWriter.getvalue`` in ``tests/encoding/bitio.py``) exactly, so
    kernel-built streams are byte-identical to its output.
    """
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def _validate_width(width: int) -> None:
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")


def pack_fields(values, width: int) -> np.ndarray:
    """Pack equal-width unsigned fields into an MSB-first bit array.

    Parameters
    ----------
    values:
        1-D array of unsigned field values.
    width:
        Bits per field.  ``0`` yields an empty bit array (a zero-width
        field writes nothing, as in ``BitWriter.write``).

    Returns
    -------
    numpy.ndarray
        ``uint8`` array of ``len(values) * width`` bits, each 0 or 1.

    Raises
    ------
    ValueError
        If any value does not fit in ``width`` bits (the same contract
        ``BitWriter.write`` enforces per field).
    """
    _validate_width(width)
    arr = np.asarray(values, dtype=np.int64)
    if width == 0:
        if arr.size and np.any(arr):
            bad = int(arr[np.nonzero(arr)[0][0]])
            raise ValueError(f"value {bad} does not fit in 0 bits")
        return np.zeros(0, dtype=np.uint8)
    if arr.size and (np.any(arr < 0) or np.any(arr >> width)):
        bad_index = int(np.nonzero((arr < 0) | (arr >> width != 0))[0][0])
        raise ValueError(f"value {int(arr[bad_index])} does not fit in {width} bits")
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    planes = (arr[:, None] >> shifts[None, :]) & 1
    return planes.astype(np.uint8).reshape(-1)


def unpack_fields(data, bit_offset: int, count: int, width: int) -> np.ndarray:
    """Read ``count`` equal-width fields starting at ``bit_offset``.

    Parameters
    ----------
    data:
        Either a byte stream (``bytes``) or an already-expanded 0/1 bit
        array from :func:`bytes_to_bits` (pass the bit array when doing
        many reads from one stream — the expansion then happens once).
    bit_offset:
        Bit position of the first field.
    count, width:
        Number of fields and bits per field.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of ``count`` field values (zeros for
        ``width == 0``, matching ``BitReader.read``).

    Raises
    ------
    EOFError
        If the stream ends before ``count * width`` bits are available
        (the ``BitReader`` contract).
    """
    _validate_width(width)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if width == 0 or count == 0:
        return np.zeros(count, dtype=np.int64)
    bits = data if isinstance(data, np.ndarray) else bytes_to_bits(data)
    end = bit_offset + count * width
    if end > bits.size:
        raise EOFError(
            f"bitstream exhausted: need {count * width} bits at position "
            f"{bit_offset}, stream has {bits.size}"
        )
    weights = np.left_shift(1, np.arange(width - 1, -1, -1, dtype=np.int64))
    window = bits[bit_offset:end].reshape(count, width).astype(np.int64)
    return window @ weights


def _segment_arrays(widths, counts) -> tuple[np.ndarray, np.ndarray]:
    w = np.asarray(widths, dtype=np.int64)
    c = np.asarray(counts, dtype=np.int64)
    if w.ndim != 1 or c.ndim != 1 or w.shape != c.shape:
        raise ValueError(
            f"widths and counts must be matching 1-D arrays, got {w.shape} and {c.shape}"
        )
    if w.size and np.any(w < 0):
        raise ValueError("segment widths must be non-negative")
    if c.size and np.any(c < 0):
        raise ValueError("segment counts must be non-negative")
    return w, c


def pack_segments(values, widths, counts) -> np.ndarray:
    """Pack runs of fields where each run shares one width.

    Segment ``s`` consists of ``counts[s]`` consecutive fields of
    ``widths[s]`` bits; ``values`` holds all fields concatenated in
    stream order.  This is the general variable-width kernel: the whole
    BD bitstream (8-bit bases, 4-bit width fields, w-bit delta runs)
    is one descriptor list, packed in a single call.

    Returns
    -------
    numpy.ndarray
        The MSB-first 0/1 bit array of the packed stream.
    """
    w, c = _segment_arrays(widths, counts)
    arr = np.asarray(values, dtype=np.int64)
    if int(c.sum()) != arr.size:
        raise ValueError(
            f"segment counts sum to {int(c.sum())} fields but got {arr.size} values"
        )
    field_widths = np.repeat(w, c)
    if arr.size and (np.any(arr < 0) or np.any((arr >> field_widths) != 0)):
        bad = int(np.nonzero((arr < 0) | ((arr >> field_widths) != 0))[0][0])
        raise ValueError(
            f"value {int(arr[bad])} does not fit in {int(field_widths[bad])} bits"
        )
    total = int(field_widths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.uint8)
    ends = np.cumsum(field_widths)
    starts = ends - field_widths
    # Bit-plane decomposition: bit j of field i is (value_i >> (w_i-1-j)) & 1.
    spread_values = np.repeat(arr, field_widths)
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, field_widths)
    shifts = np.repeat(field_widths, field_widths) - 1 - within
    return ((spread_values >> shifts) & 1).astype(np.uint8)


def unpack_segments(data, bit_offset: int, widths, counts) -> np.ndarray:
    """Inverse of :func:`pack_segments`: read described runs of fields.

    Parameters
    ----------
    data:
        Byte stream or 0/1 bit array (see :func:`unpack_fields`).
    bit_offset:
        Bit position where the first segment starts.
    widths, counts:
        Segment descriptors: ``counts[s]`` fields of ``widths[s]`` bits.

    Returns
    -------
    numpy.ndarray
        ``int64`` values of all fields, concatenated in stream order
        (zero-width fields decode to 0).
    """
    w, c = _segment_arrays(widths, counts)
    bits = data if isinstance(data, np.ndarray) else bytes_to_bits(data)
    field_widths = np.repeat(w, c)
    n_fields = field_widths.size
    total = int(field_widths.sum())
    if bit_offset + total > bits.size:
        raise EOFError(
            f"bitstream exhausted: need {total} bits at position "
            f"{bit_offset}, stream has {bits.size}"
        )
    values = np.zeros(n_fields, dtype=np.int64)
    if total == 0:
        return values
    nonzero = field_widths > 0
    nz_widths = field_widths[nonzero]
    ends = np.cumsum(nz_widths)
    starts = ends - nz_widths
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, nz_widths)
    shifts = np.repeat(nz_widths, nz_widths) - 1 - within
    gathered = bits[bit_offset : bit_offset + total].astype(np.int64)
    contributions = gathered << shifts
    values[nonzero] = np.add.reduceat(contributions, starts)
    return values


def scatter_fields(bits: np.ndarray, starts, values, width: int, validate: bool = True) -> None:
    """Write equal-width fields at arbitrary bit offsets, in place.

    The scatter complement of :func:`pack_fields`: field ``i``'s
    ``width`` bits land at ``bits[starts[i] : starts[i] + width]``
    MSB-first.  Encoders that know their field offsets up front (the
    BD stream layout is fully determined by the per-tile delta widths)
    allocate one zeroed bit array and scatter each field family —
    bases, width fields, the delta runs of each distinct width — in a
    handful of these calls.

    Parameters
    ----------
    bits:
        Preallocated 0/1 ``uint8`` bit array, modified in place.
    starts:
        1-D array of bit offsets, one per field.  Offsets may be in
        any order but fields must not overlap.
    values:
        1-D array of unsigned field values, same length as ``starts``.
    width:
        Bits per field; ``0`` writes nothing.
    validate:
        Skip the fits-in-``width``-bits check when ``False`` — for
        callers whose values fit by construction (BD deltas are
        ``value - min``, so they fit their computed width).  With
        ``width <= 8`` an oversized value is then silently truncated
        to its low byte instead of raising.

    Raises
    ------
    ValueError
        If ``validate`` and any value does not fit in ``width`` bits.
    """
    _validate_width(width)
    arr = np.asarray(values)
    if validate and arr.size:
        low, high = int(arr.min()), int(arr.max())
        if low < 0 or (width < 64 and high >> width):
            bad = low if low < 0 else high
            raise ValueError(f"value {bad} does not fit in {width} bits")
    if width == 0 or arr.size == 0:
        return
    # int32 offsets halve the index-matrix memory traffic; any frame's
    # bitstream is far below 2**31 bits.
    index_dtype = np.int32 if bits.size < 2**31 else np.int64
    positions = np.asarray(starts, dtype=index_dtype)[:, None] + np.arange(
        width, dtype=index_dtype
    )
    if width <= 8:
        # Byte-or-narrower fields: bit-plane extraction runs in uint8
        # (validation above guarantees every value fits a byte).
        work = arr.astype(np.uint8, copy=False)
        shifts = np.arange(width - 1, -1, -1, dtype=np.uint8)
        bits[positions] = (work[:, None] >> shifts) & np.uint8(1)
    else:
        work = arr.astype(np.int64, copy=False)
        shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
        bits[positions] = (work[:, None] >> shifts) & 1


def scatter_field_runs(
    bits: np.ndarray, starts, widths, values: np.ndarray, run_length: int
) -> None:
    """Scatter equal-length field runs grouped by their shared width.

    Run ``i`` writes ``values[i]`` (``run_length`` fields) at bit
    offset ``starts[i]``, each field ``widths[i]`` bits wide — the
    shape of a BD delta run.  Runs sharing a width are scattered
    together (one :func:`scatter_fields` call per distinct width, at
    most 8 for byte data), so no per-field Python executes.  Values
    must fit their widths by construction (no validation), as BD
    deltas do.

    Parameters
    ----------
    bits:
        Preallocated 0/1 ``uint8`` bit array, modified in place.
    starts, widths:
        1-D arrays: bit offset and field width of each run.
    values:
        ``(n_runs, run_length)`` unsigned field values.
    run_length:
        Fields per run.
    """
    starts = np.asarray(starts, dtype=np.int64)
    widths = np.asarray(widths)
    for w in np.unique(widths):
        w = int(w)
        if w == 0:
            continue
        sel = np.nonzero(widths == w)[0]
        field_starts = (
            starts[sel][:, None] + np.arange(run_length, dtype=np.int64) * w
        ).reshape(-1)
        scatter_fields(bits, field_starts, values[sel].reshape(-1), w, validate=False)


def gather_fields(bits: np.ndarray, starts, width: int) -> np.ndarray:
    """Read one ``width``-bit field (``width <= 8``) at each offset.

    The gather complement of :func:`scatter_fields` for byte-or-
    narrower fields: returns a ``uint8`` array of field values, one
    per offset, computed by bit-plane accumulation (no per-field
    Python).  BD decoders use it to pull every block's 8-bit base out
    of the stream in one call.

    Raises
    ------
    EOFError
        If any field extends past the end of ``bits``.
    ValueError
        If ``width`` is negative or wider than 8 bits.
    """
    _validate_width(width)
    if width > 8:
        raise ValueError(f"gather_fields reads byte-or-narrower fields, got {width}")
    starts = np.asarray(starts, dtype=np.int64)
    if width == 0 or starts.size == 0:
        return np.zeros(starts.size, dtype=np.uint8)
    last = int(starts.max()) + width
    if last > bits.size:
        raise EOFError(
            f"bitstream exhausted: field needs bit {last - 1}, stream has {bits.size}"
        )
    runs = bits[starts[:, None] + np.arange(width, dtype=np.int64)]
    values = np.zeros(starts.size, dtype=np.uint8)
    for j in range(width):
        values += runs[:, j] << np.uint8(width - 1 - j)
    return values


def gather_field_runs(
    bits: np.ndarray, starts, widths, run_length: int
) -> np.ndarray:
    """Decode equal-length field runs grouped by their shared width.

    The inverse of :func:`scatter_field_runs`: ``starts[i]`` is the
    bit offset of run ``i``, which holds ``run_length`` fields of
    ``widths[i]`` bits.  Runs sharing a width are gathered together
    (one fancy-index + bit-plane accumulation per distinct width), so
    no per-field Python executes.  Returns ``(n_runs, run_length)``
    uint8 values modulo 256 — exactly what reaches a uint8 pixel;
    zero-width runs decode to zeros.  ``starts`` must be ascending
    (stream order), as a decoder's walk produces.

    Raises
    ------
    EOFError
        If any run extends past the end of ``bits``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    widths = np.asarray(widths)
    values = np.zeros((starts.size, run_length), dtype=np.uint8)
    for w in np.unique(widths):
        w = int(w)
        if w == 0:
            continue
        sel = np.nonzero(widths == w)[0]
        idx = starts[sel][:, None] + np.arange(run_length * w, dtype=np.int64)[None, :]
        if idx.size and int(idx[-1, -1]) >= bits.size:
            raise EOFError(
                f"bitstream exhausted: field run needs bit {int(idx[-1, -1])}, "
                f"stream has {bits.size}"
            )
        runs = bits[idx].reshape(sel.size, run_length, w)
        acc = np.zeros((sel.size, run_length), dtype=np.uint8)
        # Bit planes with shift >= 8 contribute multiples of 256, which
        # vanish modulo 256 (widths > 8 only occur in corrupt streams).
        for j in range(max(0, w - 8), w):
            acc += runs[:, :, j] << np.uint8(w - 1 - j)
        values[sel] = acc
    return values


def sliding_field_values(bits: np.ndarray, width: int) -> np.ndarray:
    """Field value at *every* bit offset of a stream, vectorized.

    ``result[i]`` is the ``width``-bit unsigned value of
    ``bits[i : i + width]`` — what ``BitReader.read(width)`` would
    return from position ``i``.  Decoders whose field positions depend
    on in-stream metadata (the BD width fields) precompute this table
    once and then walk offsets with cheap integer arithmetic instead of
    per-field bit extraction.

    Returns an unsigned array of length ``len(bits) - width + 1``
    (empty if the stream is shorter than one field), in the narrowest
    dtype that holds a ``width``-bit value — ``uint8`` for the 4-bit
    BD width fields, so the table converts to a random-access ``bytes``
    object with a plain ``tobytes()``.
    """
    _validate_width(width)
    if width == 0:
        return np.zeros(bits.size + 1, dtype=np.uint8)
    n = bits.size - width + 1
    if width <= 8:
        dtype: type = np.uint8
    elif width <= 16:
        dtype = np.uint16
    elif width <= 32:
        dtype = np.uint32
    else:
        dtype = np.uint64
    if n <= 0:
        return np.zeros(0, dtype=dtype)
    out = np.zeros(n, dtype=dtype)
    scratch = np.empty(n, dtype=dtype)
    for j in range(width):
        np.left_shift(bits[j : j + n], dtype(width - 1 - j), out=scratch, casting="unsafe")
        out += scratch
    return out
