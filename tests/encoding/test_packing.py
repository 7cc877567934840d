"""Tests for the vectorized bit packing/unpacking kernels.

The kernels re-express the ``BitWriter``/``BitReader`` format as NumPy
array operations; these tests pin the equivalence — every packed
stream must be byte-identical to what the per-field writer produces,
and every unpack must read back what the per-field reader reads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.packing import (
    _pack_byte_windows,
    bits_to_bytes,
    bytes_to_bits,
    gather_field_runs,
    gather_fields,
    pack_fields,
    pack_segments,
    scatter_field_runs,
    scatter_fields,
    sliding_field_values,
    unpack_fields,
)

from bitio import BitReader, BitWriter


def _segments_strategy():
    """Random segment descriptors: (width, count, values) triples."""
    return st.lists(
        st.integers(min_value=0, max_value=12).flatmap(
            lambda w: st.tuples(
                st.just(w),
                st.lists(
                    st.integers(min_value=0, max_value=(1 << w) - 1 if w else 0),
                    min_size=0,
                    max_size=12,
                ),
            )
        ),
        min_size=0,
        max_size=12,
    )


def _write_segments(segments) -> bytes:
    writer = BitWriter()
    for width, values in segments:
        for value in values:
            writer.write(value, width)
    return writer.getvalue()


class TestBitBytes:
    def test_round_trip(self):
        data = bytes([0b10110010, 0b01111111, 0x00, 0xFF])
        assert bits_to_bytes(bytes_to_bits(data)) == data

    def test_partial_byte_zero_padded_like_bitwriter(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        assert bits_to_bytes(np.array([1, 0, 1], dtype=np.uint8)) == writer.getvalue()


class TestPackFields:
    @pytest.mark.parametrize("width", [1, 3, 4, 7, 8, 12, 16])
    def test_matches_bitwriter(self, rng, width):
        values = rng.integers(0, 1 << width, 50)
        writer = BitWriter()
        writer.write_many(values, width)
        assert bits_to_bytes(pack_fields(values, width)) == writer.getvalue()

    def test_zero_width_empty(self):
        assert pack_fields([0, 0, 0], 0).size == 0

    def test_zero_width_nonzero_value_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            pack_fields([1], 0)

    def test_oversized_value_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            pack_fields([4], 2)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            pack_fields([-1], 4)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            pack_fields([0], -1)


class TestUnpackFields:
    @pytest.mark.parametrize("width", [1, 3, 4, 7, 8, 12])
    def test_inverts_pack(self, rng, width):
        values = rng.integers(0, 1 << width, 40)
        data = bits_to_bytes(pack_fields(values, width))
        assert np.array_equal(unpack_fields(data, 0, 40, width), values)

    def test_reads_at_offset(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        writer.write_many([5, 2, 7], 3)
        out = unpack_fields(writer.getvalue(), 3, 3, 3)
        assert out.tolist() == [5, 2, 7]

    def test_accepts_precomputed_bits(self):
        writer = BitWriter()
        writer.write_many([9, 4], 5)
        bits = bytes_to_bits(writer.getvalue())
        assert unpack_fields(bits, 0, 2, 5).tolist() == [9, 4]

    def test_zero_width_reads_zeros(self):
        assert unpack_fields(b"", 0, 5, 0).tolist() == [0] * 5

    def test_eof_raises(self):
        with pytest.raises(EOFError, match="exhausted"):
            unpack_fields(b"\xff", 0, 3, 4)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            unpack_fields(b"\xff", 0, -1, 4)


class TestSegments:
    @settings(max_examples=60, deadline=None)
    @given(_segments_strategy())
    def test_pack_matches_bitwriter(self, segments):
        widths = [w for w, _ in segments]
        counts = [len(vals) for _, vals in segments]
        values = [v for _, vals in segments for v in vals]
        packed = bits_to_bytes(pack_segments(values, widths, counts))
        assert packed == _write_segments(segments)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="counts sum"):
            pack_segments([1, 2, 3], [4], [2])

    def test_oversized_value_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            pack_segments([1, 9], [3], [2])

    def test_mismatched_descriptors_rejected(self):
        with pytest.raises(ValueError, match="matching 1-D"):
            pack_segments([1], [3, 4], [1])


class TestScatterFields:
    def test_matches_sequential_layout(self, rng):
        # Scattering fields at their sequential offsets reproduces the
        # plain packed stream.
        values = rng.integers(0, 32, 20)
        width = 5
        bits = np.zeros(20 * width, dtype=np.uint8)
        scatter_fields(bits, np.arange(20) * width, values, width)
        assert np.array_equal(bits, pack_fields(values, width))

    def test_out_of_order_offsets(self):
        bits = np.zeros(8, dtype=np.uint8)
        scatter_fields(bits, [4, 0], [0b1111, 0b0001], 4)
        assert bits_to_bytes(bits) == bytes([0b00011111])

    def test_wide_fields_take_int64_path(self):
        bits = np.zeros(16, dtype=np.uint8)
        scatter_fields(bits, [0], [0xDEAD], 16)
        assert bits_to_bytes(bits) == b"\xde\xad"

    def test_zero_width_noop(self):
        bits = np.zeros(4, dtype=np.uint8)
        scatter_fields(bits, [0, 2], [0, 0], 0)
        assert bits.sum() == 0

    def test_oversized_value_rejected(self):
        bits = np.zeros(8, dtype=np.uint8)
        with pytest.raises(ValueError, match="does not fit"):
            scatter_fields(bits, [0], [9], 3)

    def test_validate_false_skips_check(self):
        bits = np.zeros(3, dtype=np.uint8)
        scatter_fields(bits, [0], [0b111], 3, validate=False)
        assert bits.tolist() == [1, 1, 1]


class TestByteWindows:
    """``_pack_byte_windows`` writes ``BitWriter``'s bytes for fields of
    0-8 bits, whatever order its families and fields come in."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=8).flatmap(
                lambda w: st.tuples(st.just(w), st.integers(0, (1 << w) - 1 if w else 0))
            ),
            min_size=1,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=4),
        st.sampled_from((np.int32, np.int64)),
        st.integers(min_value=0, max_value=1_000),
    )
    def test_matches_bitwriter(self, fields, n_families, dtype, seed):
        writer = BitWriter()
        for width, value in fields:
            writer.write(value, width)
        widths = np.array([w for w, _ in fields], dtype=dtype)
        values = np.array([v for _, v in fields], dtype=np.uint8)
        starts = (np.cumsum(widths) - widths).astype(dtype)
        # Split the fields into families in a shuffled order.
        order = np.random.default_rng(seed).permutation(len(fields))
        families = [
            (starts[part], values[part], widths[part])
            for part in np.array_split(order, n_families)
        ]
        stream = _pack_byte_windows(int(widths.sum()), families)
        assert stream.dtype == np.uint8
        assert stream.tobytes() == writer.getvalue()

    def test_scalar_width_family(self):
        # Four 4-bit fields end exactly on a byte boundary.
        stream = _pack_byte_windows(16, [(np.arange(4) * 4, np.array([1, 2, 3, 15]), 4)])
        assert stream.tobytes() == b"\x12\x3f"

    def test_zero_width_field_at_the_end(self):
        starts = np.array([0, 8, 8])
        values = np.array([0xAB, 0, 0])
        widths = np.array([8, 0, 0])
        assert _pack_byte_windows(8, [(starts, values, widths)]).tobytes() == b"\xab"


class TestFieldRuns:
    def test_scatter_then_gather_round_trips(self, rng):
        run_length = 16
        widths = rng.integers(0, 9, 30)
        values = np.stack(
            [rng.integers(0, 1 << w if w else 1, run_length) for w in widths]
        ).astype(np.uint8)
        starts = np.concatenate([[0], np.cumsum(widths * run_length)[:-1]])
        bits = np.zeros(int((widths * run_length).sum()), dtype=np.uint8)
        scatter_field_runs(bits, starts, widths, values, run_length)
        assert np.array_equal(gather_field_runs(bits, starts, widths, run_length), values)

    def test_matches_bitwriter_layout(self, rng):
        run_length = 4
        widths = [3, 0, 8, 1]
        values = [[5, 1, 0, 7], [0, 0, 0, 0], [255, 17, 0, 128], [1, 0, 1, 1]]
        writer = BitWriter()
        for width, run in zip(widths, values):
            writer.write_many(run, width)
        starts = np.concatenate([[0], np.cumsum(np.array(widths) * run_length)[:-1]])
        bits = np.zeros(sum(w * run_length for w in widths), dtype=np.uint8)
        scatter_field_runs(bits, starts, widths, np.array(values, dtype=np.uint8), run_length)
        assert bits_to_bytes(bits) == writer.getvalue()

    def test_gather_eof_raises(self):
        with pytest.raises(EOFError, match="exhausted"):
            gather_field_runs(np.zeros(10, dtype=np.uint8), [0], [4], 4)


class TestGatherFields:
    def test_inverts_scatter(self, rng):
        values = rng.integers(0, 256, 40).astype(np.uint8)
        starts = np.arange(40) * 8
        bits = np.zeros(320, dtype=np.uint8)
        scatter_fields(bits, starts, values, 8)
        assert np.array_equal(gather_fields(bits, starts, 8), values)

    def test_out_of_order_offsets(self):
        bits = bytes_to_bits(bytes([0xAB, 0xCD]))
        assert gather_fields(bits, [8, 0], 8).tolist() == [0xCD, 0xAB]

    def test_zero_width_reads_zeros(self):
        assert gather_fields(np.zeros(4, dtype=np.uint8), [0, 1], 0).tolist() == [0, 0]

    def test_eof_raises(self):
        with pytest.raises(EOFError, match="exhausted"):
            gather_fields(np.zeros(10, dtype=np.uint8), [4], 8)

    def test_wide_fields_rejected(self):
        with pytest.raises(ValueError, match="byte-or-narrower"):
            gather_fields(np.zeros(16, dtype=np.uint8), [0], 9)


class TestSlidingFieldValues:
    @pytest.mark.parametrize("width", [1, 4, 8, 12])
    def test_matches_bitreader_at_every_offset(self, rng, width):
        data = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
        bits = bytes_to_bits(data)
        table = sliding_field_values(bits, width)
        assert table.size == bits.size - width + 1
        for offset in range(table.size):
            reader = BitReader(data)
            reader.read(offset)  # skip to the offset
            assert int(table[offset]) == reader.read(width)

    def test_short_stream_empty(self):
        assert sliding_field_values(np.zeros(3, dtype=np.uint8), 4).size == 0

    def test_narrow_dtype_for_sub_byte_fields(self):
        bits = np.ones(16, dtype=np.uint8)
        assert sliding_field_values(bits, 4).dtype == np.uint8
        assert sliding_field_values(bits, 12).dtype == np.uint16
