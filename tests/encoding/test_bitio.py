"""Tests for the bit-level stream writer/reader."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitio import BitReader, BitWriter


class TestBitWriter:
    def test_single_byte(self):
        writer = BitWriter()
        writer.write(0xAB, 8)
        assert writer.getvalue() == b"\xab"

    def test_sub_byte_fields_pack_msb_first(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        writer.write(0b01, 2)
        writer.write(0b011, 3)
        assert writer.getvalue() == bytes([0b10101011])

    def test_partial_byte_zero_padded(self):
        writer = BitWriter()
        writer.write(0b11, 2)
        assert writer.getvalue() == bytes([0b11000000])

    def test_zero_width_is_noop(self):
        writer = BitWriter()
        writer.write(0, 0)
        assert writer.bit_length == 0
        assert writer.getvalue() == b""

    def test_bit_length_tracks_writes(self):
        writer = BitWriter()
        writer.write(1, 3)
        writer.write(1, 11)
        assert writer.bit_length == 14

    def test_value_too_large_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError, match="does not fit"):
            writer.write(4, 2)

    def test_negative_value_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError, match="does not fit"):
            writer.write(-1, 4)

    def test_negative_width_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError, match="non-negative"):
            writer.write(0, -1)

    def test_write_many(self):
        writer = BitWriter()
        writer.write_many([1, 2, 3], 4)
        assert writer.bit_length == 12

    def test_wide_field(self):
        writer = BitWriter()
        writer.write(0xDEADBEEF, 32)
        assert writer.getvalue() == b"\xde\xad\xbe\xef"


class TestBitReader:
    def test_round_trip_mixed_widths(self):
        writer = BitWriter()
        fields = [(5, 3), (200, 8), (1, 1), (4095, 12), (0, 5)]
        for value, width in fields:
            writer.write(value, width)
        reader = BitReader(writer.getvalue())
        for value, width in fields:
            assert reader.read(width) == value

    def test_eof_detection(self):
        reader = BitReader(b"\xff")
        reader.read(8)
        with pytest.raises(EOFError, match="exhausted"):
            reader.read(1)

    def test_zero_width_read(self):
        reader = BitReader(b"")
        assert reader.read(0) == 0

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            BitReader(b"\x00").read(-2)

    def test_read_many_returns_ndarray(self):
        import numpy as np

        writer = BitWriter()
        writer.write_many([3, 1, 2], 2)
        reader = BitReader(writer.getvalue())
        values = reader.read_many(3, 2)
        assert isinstance(values, np.ndarray)
        assert values.dtype == np.int64
        assert values.tolist() == [3, 1, 2]

    def test_read_many_negative_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            BitReader(b"\x00").read_many(-1, 2)

    def test_bit_position_tracks(self):
        reader = BitReader(b"\xff\xff")
        reader.read(5)
        reader.read(6)
        assert reader.bit_position == 11

    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=24), st.data()),
            min_size=1,
            max_size=40,
        ).flatmap(
            lambda pairs: st.tuples(
                st.just([w for w, _ in pairs]),
                st.tuples(*(st.integers(min_value=0, max_value=(1 << w) - 1) for w, _ in pairs)),
            )
        )
    )
    def test_round_trip_property(self, widths_values):
        widths, values = widths_values
        writer = BitWriter()
        for value, width in zip(values, widths):
            writer.write(value, width)
        reader = BitReader(writer.getvalue())
        recovered = [reader.read(width) for width in widths]
        assert list(values) == recovered
        assert reader.bit_position == writer.bit_length
