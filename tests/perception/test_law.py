"""Tests for the parametric discrimination law (paper Eq. 3)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.perception.law import EllipsoidLawParameters, ParametricEllipsoidLaw

MID_GRAY = np.array([0.5, 0.5, 0.5])


@pytest.fixture(scope="module")
def law():
    return ParametricEllipsoidLaw()


class TestEccentricityDependence:
    def test_axes_grow_with_eccentricity(self, law):
        near = law(MID_GRAY, 5.0)
        far = law(MID_GRAY, 25.0)
        assert np.all(far > near)

    def test_fig2_growth_is_substantial(self, law):
        """Fig. 2's 25-deg ellipsoids are visibly larger than 5-deg ones."""
        ratio = law(MID_GRAY, 25.0) / law(MID_GRAY, 5.0)
        assert np.all(ratio > 1.5)

    def test_clamped_beyond_max_eccentricity(self, law):
        at_max = law(MID_GRAY, law.params.max_eccentricity)
        beyond = law(MID_GRAY, law.params.max_eccentricity + 50)
        assert np.allclose(at_max, beyond)
        assert np.array_equal(law(MID_GRAY, np.inf), at_max)

    def test_negative_eccentricity_rejected(self, law):
        with pytest.raises(ValueError, match="non-negative"):
            law(MID_GRAY, -1.0)

    @pytest.mark.parametrize("ecc", [np.nan, [5.0, np.nan, 7.0]])
    def test_nan_eccentricity_rejected(self, law, ecc):
        """``min() < 0`` is false for NaN, which used to give NaN semi-axes."""
        with pytest.raises(ValueError, match="non-negative degrees, not NaN"):
            law(np.full((3, 3), 0.5), ecc)

    @given(st.floats(min_value=0, max_value=59), st.floats(min_value=0.1, max_value=1))
    def test_monotone_in_eccentricity(self, ecc, lum):
        law = ParametricEllipsoidLaw()
        color = np.array([lum, lum, lum])
        assert np.all(law(color, ecc + 1.0) >= law(color, ecc))


class TestColorDependence:
    def test_luminance_scaling(self, law):
        dark = law(np.array([0.05, 0.05, 0.05]), 20.0)
        bright = law(np.array([0.9, 0.9, 0.9]), 20.0)
        assert np.all(bright > dark)

    def test_red_axis_larger_for_red_colors(self, law):
        reddish = law(np.array([0.8, 0.1, 0.1]), 20.0)
        bluish = law(np.array([0.1, 0.1, 0.8]), 20.0)
        assert reddish[0] / reddish[1] > bluish[0] / bluish[1]

    def test_first_axis_always_largest(self, law, rng):
        """The red/luminance DKL axis dominates the chromatic pair."""
        colors = rng.uniform(0, 1, (100, 3))
        axes = law(colors, np.full(100, 15.0))
        assert np.all(axes[:, 0] > axes[:, 1])
        assert np.all(axes[:, 0] > axes[:, 2])

    def test_black_color_well_defined(self, law):
        axes = law(np.zeros(3), 20.0)
        assert np.all(axes > 0)


class TestOutputContract:
    def test_strictly_positive(self, law, rng):
        colors = rng.uniform(0, 1, (50, 3))
        axes = law(colors, np.zeros(50))
        assert axes.min() >= ParametricEllipsoidLaw.MIN_SEMI_AXIS

    def test_batch_broadcasting(self, law):
        colors = np.zeros((4, 5, 3)) + 0.5
        out = law(colors, 10.0)
        assert out.shape == (4, 5, 3)

    def test_per_pixel_eccentricity(self, law):
        colors = np.full((3, 3), 0.5)
        out = law(colors, np.array([0.0, 10.0, 20.0]))
        assert out.shape == (3, 3)
        assert out[2, 1] > out[0, 1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("channel", [0, 1, 2])
    def test_rejects_non_finite_colors(self, law, bad, channel):
        """Any NaN or infinite channel used to give NaN semi-axes or pass."""
        colors = np.full((2, 4, 3), 0.5)
        colors[1, 2, channel] = bad
        with pytest.raises(ValueError, match="rgb colors must be finite"):
            law(colors, 5.0)
        with pytest.raises(ValueError, match="rgb colors must be finite"):
            law(colors[1, 2], 5.0)

    def test_rejects_bad_color_shape(self, law):
        with pytest.raises(ValueError, match="trailing axis"):
            law(np.zeros((3, 4)), 10.0)

    def test_deterministic(self, law):
        a = law(MID_GRAY, 12.0)
        b = law(MID_GRAY, 12.0)
        assert np.array_equal(a, b)


class TestTrainingSamples:
    def test_shapes_and_ranges(self, law):
        rng = np.random.default_rng(0)
        colors, ecc, axes = law.training_samples(100, rng)
        assert colors.shape == (100, 3)
        assert ecc.shape == (100,)
        assert axes.shape == (100, 3)
        assert 0 <= colors.min() and colors.max() <= 1
        assert 0 <= ecc.min() and ecc.max() <= law.params.max_eccentricity

    def test_samples_match_law(self, law):
        rng = np.random.default_rng(0)
        colors, ecc, axes = law.training_samples(10, rng)
        assert np.allclose(axes, law(colors, ecc))

    def test_rejects_nonpositive_count(self, law):
        with pytest.raises(ValueError, match="positive"):
            law.training_samples(0, np.random.default_rng(0))


class TestParameters:
    def test_custom_parameters_respected(self):
        big = ParametricEllipsoidLaw(EllipsoidLawParameters(base_scale=1e-3))
        small = ParametricEllipsoidLaw(EllipsoidLawParameters(base_scale=1e-6))
        assert np.all(big(MID_GRAY, 10.0) > small(MID_GRAY, 10.0))

    def test_parameters_frozen(self):
        params = EllipsoidLawParameters()
        with pytest.raises(AttributeError):
            params.base_scale = 1.0
