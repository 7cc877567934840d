"""Tests for the sRGB transfer functions (paper Eq. 1)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.color.srgb import (
    LINEAR_THRESHOLD,
    SRGB_THRESHOLD,
    encode_srgb8,
    linear_to_srgb,
    srgb_to_linear,
)

from srgb_reference import encode_srgb8_select, linear_to_srgb_select, srgb_to_linear_select

#: (package function, its two-branch oracle).
_ORACLES = [
    (linear_to_srgb, linear_to_srgb_select),
    (srgb_to_linear, srgb_to_linear_select),
    (encode_srgb8, encode_srgb8_select),
]


def _neighbours(value: float) -> list[float]:
    """``value`` and its 1-ulp neighbours."""
    return [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]


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
        recovered = encode_srgb8(srgb_to_linear(codes / 255.0))
        assert np.array_equal(recovered, codes)

    def test_output_dtype(self):
        assert encode_srgb8([0.5, 0.2, 0.9]).dtype == np.uint8

    def test_black_and_white_codes(self):
        assert encode_srgb8(0.0) == 0
        assert encode_srgb8(1.0) == 255

    def test_quantization_error_bounded(self):
        x = np.linspace(0, 1, 999)
        recovered = srgb_to_linear(encode_srgb8(x) / 255.0)
        # Half a code of sRGB error, mapped through the steepest part
        # of the inverse transfer (slope 1/12.92 near black).
        assert np.max(np.abs(linear_to_srgb(recovered) - linear_to_srgb(x))) <= 0.5 / 255 + 1e-9


class TestOneBufferMatchesBranchOracle:
    """The one-buffer transfers equal the both-branches-then-select
    oracle byte for byte, dtype, shape and result type included."""

    @staticmethod
    def _assert_equal(value):
        for function, oracle in _ORACLES:
            got, expected = function(value), oracle(value)
            assert type(got) is type(expected), function.__name__
            assert got.dtype == expected.dtype, function.__name__
            assert got.shape == expected.shape, function.__name__
            assert got.tobytes() == expected.tobytes(), function.__name__

    def test_random_arrays(self, rng):
        for shape in [(7,), (5, 6, 3), (64, 64, 3)]:
            self._assert_equal(rng.random(shape))
            self._assert_equal(rng.uniform(-0.2, 1.2, shape))
            self._assert_equal(rng.random(shape) * 0.01)

    def test_dense_linspace(self):
        self._assert_equal(np.linspace(-0.1, 1.1, 1_000_001))

    def test_thresholds_and_their_neighbours(self):
        for threshold in (LINEAR_THRESHOLD, SRGB_THRESHOLD):
            values = _neighbours(threshold)
            self._assert_equal(np.array(values))
            for value in values:
                self._assert_equal(value)

    @pytest.mark.parametrize(
        "value", [0.0, 0.5, 1.0, -1.0, 2.0, 1e-3, 3, np.float32(0.3), np.array(0.02)]
    )
    def test_scalars_keep_their_result_types(self, value):
        """A scalar gives a 0-d array from the transfers, a NumPy uint8
        from ``encode_srgb8``."""
        self._assert_equal(value)

    def test_lists_empty_and_strided_inputs(self, rng):
        self._assert_equal([0.5, 0.001, 0.9])
        self._assert_equal([])
        self._assert_equal(np.zeros((0, 3)))
        self._assert_equal(np.asfortranarray(rng.random((5, 7))))
        self._assert_equal(rng.random((9, 9, 3))[::2, 1::3])

    def test_non_finite_input_still_raises(self):
        for function, _ in _ORACLES:
            for bad in (np.nan, np.inf, [0.5, -np.inf]):
                with pytest.raises(ValueError, match="finite"):
                    function(bad)
