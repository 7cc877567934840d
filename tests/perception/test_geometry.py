"""Tests for the ellipsoid quadric geometry (paper Eq. 9-13)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.color.dkl import DKL_TO_RGB, RGB_TO_DKL
from repro.perception.geometry import channel_extrema, channel_halfwidth, mahalanobis
from repro.perception.model import ParametricModel

from geometry_reference import channel_extrema_paper, quadric_matrix


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
        assert np.all(mahalanobis(centers, centers, axes) <= 1.0)

    def test_far_point_is_outside(self, sample):
        centers, axes = sample
        far = np.clip(centers + 0.5, 0, 1.5)
        assert np.all(mahalanobis(far, centers, axes) > 1.0)

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
