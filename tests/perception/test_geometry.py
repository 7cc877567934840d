"""Tests for the ellipsoid quadric geometry (paper Eq. 9-13)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.color.dkl import DKL_TO_RGB, RGB_TO_DKL
from repro.perception.geometry import (
    _paper_normalized_coefficients,
    channel_extrema,
    channel_halfwidth,
    contains,
    mahalanobis,
    quadric_coefficients,
    quadric_matrix,
)
from repro.perception.model import ParametricModel

from geometry_reference import channel_extrema_paper


@pytest.fixture(scope="module")
def sample(model=None):
    model = ParametricModel()
    rng = np.random.default_rng(42)
    centers = rng.uniform(0.15, 0.85, (40, 3))
    axes = model.semi_axes(centers, rng.uniform(5, 40, 40))
    return centers, axes


def _surface_points(centers, axes, rng, count=16):
    """Random points exactly on each ellipsoid surface."""
    directions = rng.normal(size=(centers.shape[0], count, 3))
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    dkl_offsets = directions * axes[:, None, :]
    kappa = centers @ RGB_TO_DKL.T
    return (kappa[:, None, :] + dkl_offsets) @ DKL_TO_RGB.T


class TestQuadricMatrix:
    def test_symmetric(self, sample):
        _, axes = sample
        q = quadric_matrix(axes)
        assert np.allclose(q, np.swapaxes(q, -1, -2))

    def test_positive_definite(self, sample):
        _, axes = sample
        q = quadric_matrix(axes)
        eigenvalues = np.linalg.eigvalsh(q)
        assert eigenvalues.min() > 0

    def test_surface_equation_holds(self, sample):
        centers, axes = sample
        rng = np.random.default_rng(0)
        points = _surface_points(centers, axes, rng)
        q = quadric_matrix(axes)
        delta = points - centers[:, None, :]
        values = np.einsum("npi,nij,npj->np", delta, q, delta)
        assert np.allclose(values, 1.0, atol=1e-8)

    def test_rejects_nonpositive_axes(self):
        with pytest.raises(ValueError, match="positive"):
            quadric_matrix(np.array([1e-3, 0.0, 1e-3]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_axes(self, bad):
        with pytest.raises(ValueError, match="finite"):
            quadric_matrix(np.array([1e-3, bad, 1e-3]))


class TestQuadricCoefficients:
    def test_polynomial_vanishes_on_surface(self, sample):
        centers, axes = sample
        rng = np.random.default_rng(1)
        points = _surface_points(centers, axes, rng)
        c = quadric_coefficients(centers, axes)
        x, y, z = points[..., 0], points[..., 1], points[..., 2]
        value = (
            c["A"][:, None] * x**2 + c["B"][:, None] * y**2 + c["C"][:, None] * z**2
            + c["G"][:, None] * x * y + c["H"][:, None] * y * z + c["I"][:, None] * z * x
            + c["D"][:, None] * x + c["E"][:, None] * y + c["F"][:, None] * z
            + c["c0"][:, None]
        )
        # Coefficients scale like 1/axis^2 (~1e8), so normalize the
        # residual by the constant term for a relative check.
        assert np.allclose(value / c["c0"][:, None], 0.0, atol=1e-9)

    def test_paper_normalization_constant_is_one(self, sample):
        centers, axes = sample
        raw = quadric_coefficients(centers, axes)
        normalized = _paper_normalized_coefficients(centers, axes)
        for key in ("A", "B", "C", "D", "E", "F", "G", "H", "I"):
            assert np.allclose(normalized[key], raw[key] / raw["c0"])

    def test_paper_normalization_rejects_origin_ellipsoid(self):
        # An ellipsoid whose surface passes exactly through the RGB
        # origin has a vanishing constant term, which Eq. 10's
        # normalization cannot handle.
        axes = np.array([1e-3, 1e-3, 1e-3])
        center = DKL_TO_RGB @ np.array([1e-3, 0.0, 0.0])  # surface hits origin
        with pytest.raises(ValueError, match="Eq. 10"):
            _paper_normalized_coefficients(center, axes)



class TestChannelExtrema:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_extrema_lie_on_surface(self, sample, axis):
        centers, axes = sample
        extrema = channel_extrema(centers, axes, axis)
        assert np.allclose(mahalanobis(extrema.high, centers, axes), 1.0, atol=1e-9)
        assert np.allclose(mahalanobis(extrema.low, centers, axes), 1.0, atol=1e-9)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_extrema_bound_random_surface_points(self, sample, axis):
        centers, axes = sample
        rng = np.random.default_rng(2)
        points = _surface_points(centers, axes, rng, count=64)
        extrema = channel_extrema(centers, axes, axis)
        assert np.all(points[..., axis] <= extrema.high[:, None, axis] + 1e-9)
        assert np.all(points[..., axis] >= extrema.low[:, None, axis] - 1e-9)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_central_symmetry(self, sample, axis):
        centers, axes = sample
        extrema = channel_extrema(centers, axes, axis)
        assert np.allclose(0.5 * (extrema.high + extrema.low), centers, atol=1e-12)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_displacement_component_equals_halfwidth(self, sample, axis):
        centers, axes = sample
        extrema = channel_extrema(centers, axes, axis)
        assert np.allclose(
            extrema.displacement[:, axis], channel_halfwidth(axes, axis), atol=1e-12
        )

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_matches_paper_recipe(self, sample, axis):
        centers, axes = sample
        ours = channel_extrema(centers, axes, axis)
        paper = channel_extrema_paper(centers, axes, axis)
        assert np.allclose(ours.high, paper.high, atol=1e-9)
        assert np.allclose(ours.low, paper.low, atol=1e-9)

    def test_invalid_axis(self, sample):
        centers, axes = sample
        with pytest.raises(ValueError, match="axis"):
            channel_extrema(centers, axes, 3)

    def test_halfwidth_invalid_axis(self, sample):
        _, axes = sample
        with pytest.raises(ValueError, match="axis"):
            channel_halfwidth(axes, -1)

    def test_halfwidth_rejects_non_positive_semi_axes(self):
        with pytest.raises(ValueError, match="strictly positive"):
            channel_halfwidth([-1e-3, 0.0, 1e-3], 2)

    def test_halfwidth_rejects_nan_semi_axes(self):
        with pytest.raises(ValueError, match="finite"):
            channel_halfwidth([1e-3, np.nan, 1e-3], 0)

    def test_halfwidth_rejects_infinite_semi_axes(self):
        with pytest.raises(ValueError, match="finite"):
            channel_halfwidth([1e-3, 1e-3, np.inf], 1)

    def test_blue_halfwidth_dominates_green(self, sample):
        """The documented RGB anisotropy: blue >> green wiggle room."""
        _, axes = sample
        assert np.all(channel_halfwidth(axes, 2) > channel_halfwidth(axes, 1))


class TestContainment:
    def test_center_is_inside(self, sample):
        centers, axes = sample
        assert contains(centers, centers, axes).all()

    def test_far_point_is_outside(self, sample):
        centers, axes = sample
        far = np.clip(centers + 0.5, 0, 1.5)
        assert not contains(far, centers, axes).any()

    def test_mahalanobis_zero_at_center(self, sample):
        centers, axes = sample
        assert np.allclose(mahalanobis(centers, centers, axes), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_mahalanobis_rejects_non_finite_axes(self, sample, bad):
        centers, axes = sample
        axes = axes.copy()
        axes[0, 1] = bad
        with pytest.raises(ValueError, match="semi-axes"):
            mahalanobis(centers, centers, axes)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.999))
    def test_mahalanobis_scales_linearly(self, fraction):
        model = ParametricModel()
        center = np.array([0.5, 0.4, 0.6])
        axes = model.semi_axes(center, 20.0)
        extrema = channel_extrema(center, axes, 2)
        point = center + fraction * extrema.displacement
        assert mahalanobis(point, center, axes) == pytest.approx(fraction, abs=1e-9)
