"""Tests for color utilities (hex parsing, luminance, validation)."""

import numpy as np
import pytest

from repro.color.srgb import encode_srgb8
from repro.color.utils import (
    ensure_color_array,
    _format_hex,
    parse_hex,
    relative_luminance,
)

#: The four perceptually identical colors of the paper's Fig. 1.
FIG1_COLORS = ("#F06077", "#F26077", "#F25E77", "#F26075")


class TestHex:
    def test_parse_black_and_white(self):
        assert np.allclose(parse_hex("#000000"), 0.0)
        assert np.allclose(parse_hex("#FFFFFF"), 1.0)

    def test_parse_without_hash(self):
        assert np.allclose(parse_hex("FF0000"), parse_hex("#FF0000"))

    def test_round_trip_through_srgb(self):
        for code in FIG1_COLORS:
            linear = parse_hex(code)
            assert _format_hex(encode_srgb8(linear)) == code.upper()

    def test_fig1_colors_are_close_but_distinct(self):
        linears = np.array([parse_hex(c) for c in FIG1_COLORS])
        assert len({tuple(row) for row in np.round(linears, 9)}) == 4
        spread = linears.max(axis=0) - linears.min(axis=0)
        assert np.all(spread < 0.02)  # numerically close, as the paper shows

    def test_parse_rejects_garbage(self):
        for bad in ("#12345", "nothex", "#GG0000", ""):
            with pytest.raises(ValueError, match="hex"):
                parse_hex(bad)

    def test_format_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="triple"):
            _format_hex(np.zeros((2, 3)))

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            _format_hex(np.array([0, 0, 300]))


class TestLuminance:
    def test_white_is_one(self):
        assert relative_luminance([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_black_is_zero(self):
        assert relative_luminance([0.0, 0.0, 0.0]) == 0.0

    def test_green_dominates(self):
        r = relative_luminance([1.0, 0.0, 0.0])
        g = relative_luminance([0.0, 1.0, 0.0])
        b = relative_luminance([0.0, 0.0, 1.0])
        assert g > r > b

    def test_batch_shape(self):
        frame = np.zeros((4, 4, 3))
        assert relative_luminance(frame).shape == (4, 4)


class TestEnsureColorArray:
    def test_accepts_lists(self):
        out = ensure_color_array([[0.1, 0.2, 0.3]])
        assert out.dtype == np.float64
        assert out.shape == (1, 3)

    def test_rejects_wrong_axis(self):
        with pytest.raises(ValueError, match="trailing axis"):
            ensure_color_array(np.zeros((3, 4)), "x")
