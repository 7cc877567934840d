"""Tests for PSNR and MSE metrics."""

import numpy as np
import pytest

from repro.metrics.psnr import mse, psnr, _psnr_per_channel


class TestMSE:
    def test_identical_is_zero(self):
        frame = np.full((4, 4, 3), 100, dtype=np.uint8)
        assert mse(frame, frame) == 0.0

    def test_known_value(self):
        a = np.zeros((2, 2), dtype=np.uint8)
        b = np.full((2, 2), 10, dtype=np.uint8)
        assert mse(a, b) == 100.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mse(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mse(np.zeros((0,)), np.zeros((0,)))


class TestPSNR:
    def test_identical_is_infinite(self):
        frame = np.full((4, 4, 3), 50, dtype=np.uint8)
        assert psnr(frame, frame) == float("inf")

    def test_known_value(self):
        a = np.zeros((10, 10), dtype=np.uint8)
        b = np.full((10, 10), 255, dtype=np.uint8)
        assert psnr(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_one_code_error(self):
        a = np.zeros((10, 10), dtype=np.uint8)
        b = np.ones((10, 10), dtype=np.uint8)
        assert psnr(a, b) == pytest.approx(10 * np.log10(255**2), abs=1e-9)

    def test_smaller_error_higher_psnr(self, rng):
        reference = rng.integers(0, 256, (16, 16, 3)).astype(np.uint8)
        small = np.clip(reference.astype(int) + 1, 0, 255).astype(np.uint8)
        large = np.clip(reference.astype(int) + 10, 0, 255).astype(np.uint8)
        assert psnr(reference, small) > psnr(reference, large)

    def test_custom_peak(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 0.1)
        assert psnr(a, b, peak=1.0) == pytest.approx(20.0, abs=1e-9)

    def test_rejects_bad_peak(self):
        with pytest.raises(ValueError, match="peak"):
            psnr(np.zeros((2, 2)), np.zeros((2, 2)), peak=0.0)


class TestPerChannel:
    def test_isolates_channels(self):
        a = np.zeros((4, 4, 3), dtype=np.uint8)
        b = a.copy()
        b[..., 2] = 10  # damage blue only
        values = _psnr_per_channel(a, b)
        assert values[0] == float("inf")
        assert values[1] == float("inf")
        assert np.isfinite(values[2])

    def test_requires_3d(self):
        with pytest.raises(ValueError, match=r"\(H, W, C\)"):
            _psnr_per_channel(np.zeros((4, 4)), np.zeros((4, 4)))
