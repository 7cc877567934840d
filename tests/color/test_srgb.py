"""Tests for the sRGB transfer functions (paper Eq. 1)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.color.srgb import (
    LINEAR_THRESHOLD,
    SRGB_THRESHOLD,
    decode_srgb8,
    encode_srgb8,
    linear_to_srgb,
    _quantize_unit,
    srgb_to_linear,
)


class TestTransferFunction:
    def test_zero_maps_to_zero(self):
        assert linear_to_srgb(0.0) == 0.0

    def test_one_maps_to_one(self):
        assert linear_to_srgb(1.0) == pytest.approx(1.0)

    def test_linear_segment(self):
        x = LINEAR_THRESHOLD / 2
        assert linear_to_srgb(x) == pytest.approx(12.92 * x)

    def test_power_segment(self):
        x = 0.5
        expected = 1.055 * 0.5 ** (1 / 2.4) - 0.055
        assert linear_to_srgb(x) == pytest.approx(expected)

    def test_continuous_at_threshold(self):
        below = linear_to_srgb(LINEAR_THRESHOLD - 1e-9)
        above = linear_to_srgb(LINEAR_THRESHOLD + 1e-9)
        assert abs(float(above) - float(below)) < 1e-4

    def test_threshold_images_match(self):
        assert linear_to_srgb(LINEAR_THRESHOLD) == pytest.approx(
            SRGB_THRESHOLD, abs=1e-6
        )

    def test_monotonically_increasing(self):
        xs = np.linspace(0, 1, 1001)
        ys = linear_to_srgb(xs)
        assert np.all(np.diff(ys) > 0)

    def test_clips_out_of_range_input(self):
        assert linear_to_srgb(1.5) == pytest.approx(1.0)
        assert linear_to_srgb(-0.5) == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            linear_to_srgb([0.5, np.nan])

    def test_preserves_shape(self):
        arr = np.zeros((3, 4, 3))
        assert linear_to_srgb(arr).shape == (3, 4, 3)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_round_trip_continuous(self, x):
        assert srgb_to_linear(linear_to_srgb(x)) == pytest.approx(x, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_inverse_round_trip_continuous(self, s):
        assert linear_to_srgb(srgb_to_linear(s)) == pytest.approx(s, abs=1e-12)


class TestQuantized:
    def test_all_codes_round_trip(self):
        codes = np.arange(256, dtype=np.uint8)
        recovered = encode_srgb8(decode_srgb8(codes))
        assert np.array_equal(recovered, codes)

    def test_output_dtype(self):
        assert encode_srgb8([0.5, 0.2, 0.9]).dtype == np.uint8

    def test_black_and_white_codes(self):
        assert encode_srgb8(0.0) == 0
        assert encode_srgb8(1.0) == 255

    def test_decode_rejects_floats(self):
        with pytest.raises(TypeError, match="integers"):
            decode_srgb8(np.array([0.5]))

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            decode_srgb8(np.array([300]))

    def test_decode_values_in_unit_interval(self):
        values = decode_srgb8(np.arange(256))
        assert values.min() == 0.0
        assert values.max() == pytest.approx(1.0)

    def test_quantization_error_bounded(self):
        x = np.linspace(0, 1, 999)
        recovered = decode_srgb8(encode_srgb8(x))
        # Half a code of sRGB error, mapped through the steepest part
        # of the inverse transfer (slope 1/12.92 near black).
        assert np.max(np.abs(linear_to_srgb(recovered) - linear_to_srgb(x))) <= 0.5 / 255 + 1e-9


class TestQuantizeUnit:
    def test_endpoints_preserved(self):
        assert _quantize_unit(0.0) == 0.0
        assert _quantize_unit(1.0) == 1.0

    def test_grid_size(self):
        values = _quantize_unit(np.linspace(0, 1, 100), levels=4)
        unique = np.unique(values)
        assert len(unique) == 4
        assert np.allclose(unique, [0.0, 1 / 3, 2 / 3, 1.0])

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError, match="levels"):
            _quantize_unit([0.5], levels=1)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=2, max_value=256))
    def test_error_bounded_by_half_step(self, x, levels):
        q = float(_quantize_unit(x, levels=levels))
        assert abs(q - x) <= 0.5 / (levels - 1) + 1e-12
