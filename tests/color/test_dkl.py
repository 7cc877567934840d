"""Tests for the RGB<->DKL transform (paper Eq. 2)."""

import numpy as np

from repro.color.dkl import DKL_TO_RGB, RGB_TO_DKL


class TestMatrix:
    def test_published_coefficients(self):
        expected = np.array(
            [[0.14, 0.17, 0.00], [-0.21, -0.71, -0.07], [0.21, 0.72, 0.07]]
        )
        assert np.array_equal(RGB_TO_DKL, expected)

    def test_inverse_is_exact(self):
        assert np.allclose(RGB_TO_DKL @ DKL_TO_RGB, np.eye(3), atol=1e-9)
        assert np.allclose(DKL_TO_RGB @ RGB_TO_DKL, np.eye(3), atol=1e-9)

    def test_near_singular_but_invertible(self):
        det = np.linalg.det(RGB_TO_DKL)
        assert det != 0
        assert abs(det) < 1e-3  # the documented near-singularity
