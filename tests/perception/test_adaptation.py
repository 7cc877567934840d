"""Tests for the dark-adaptation model extension (paper Sec. 7)."""

import numpy as np
import pytest

from repro.perception.adaptation import DarkAdaptedModel

DARK = np.array([0.03, 0.03, 0.05])
BRIGHT = np.array([0.9, 0.9, 0.9])


class TestScaling:
    def test_zero_adaptation_is_identity(self, model):
        wrapped = DarkAdaptedModel(model, adaptation=0.0)
        assert np.array_equal(
            wrapped.semi_axes(DARK, 20.0), model.semi_axes(DARK, 20.0)
        )

    def test_dark_pixels_inflate_most(self, model):
        wrapped = DarkAdaptedModel(model, adaptation=1.0)
        dark_ratio = wrapped.semi_axes(DARK, 20.0) / model.semi_axes(DARK, 20.0)
        bright_ratio = wrapped.semi_axes(BRIGHT, 20.0) / model.semi_axes(BRIGHT, 20.0)
        assert dark_ratio.min() > bright_ratio.max()

    def test_bright_pixels_nearly_untouched(self, model):
        wrapped = DarkAdaptedModel(model, adaptation=1.0)
        ratio = wrapped.semi_axes(BRIGHT, 20.0) / model.semi_axes(BRIGHT, 20.0)
        assert ratio.max() < 1.05

    def test_monotone_in_adaptation_state(self, model):
        half = DarkAdaptedModel(model, adaptation=0.5)
        full = DarkAdaptedModel(model, adaptation=1.0)
        assert np.all(full.semi_axes(DARK, 20.0) >= half.semi_axes(DARK, 20.0))

    def test_gain_controls_inflation(self, model):
        mild = DarkAdaptedModel(model, adaptation=1.0, gain=0.5)
        strong = DarkAdaptedModel(model, adaptation=1.0, gain=2.0)
        assert np.all(strong.semi_axes(DARK, 20.0) > mild.semi_axes(DARK, 20.0))

    def test_black_pixel_hits_maximum_scale(self, model):
        wrapped = DarkAdaptedModel(model, adaptation=1.0, gain=1.0)
        black = np.zeros(3)
        ratio = wrapped.semi_axes(black, 20.0) / model.semi_axes(black, 20.0)
        assert np.allclose(ratio, 2.0)

    def test_batch_shapes(self, model):
        wrapped = DarkAdaptedModel(model, adaptation=0.7)
        frame = np.random.default_rng(0).uniform(0, 1, (4, 5, 3))
        assert wrapped.semi_axes(frame, 20.0).shape == (4, 5, 3)


class TestCompressionEffect:
    def test_dark_adaptation_improves_dark_scene_compression(self):
        """The paper's future-work conjecture, measured."""
        from repro import FrameContext, PerceptualCodec
        from repro.perception.model import ParametricModel
        from repro.scenes.library import render_scene

        frame = render_scene("dumbo", 64, 64)
        base_model = ParametricModel()
        light = PerceptualCodec(model=base_model)
        dark = PerceptualCodec(model=DarkAdaptedModel(base_model, adaptation=1.0))
        ctx = FrameContext(frame, eccentricity=25.0)
        light_bits = light.encode(ctx).breakdown.total_bits
        dark_bits = dark.encode(ctx).breakdown.total_bits
        assert dark_bits < light_bits


class TestValidation:
    def test_rejects_bad_adaptation(self, model):
        with pytest.raises(ValueError, match="adaptation"):
            DarkAdaptedModel(model, adaptation=1.5)
        with pytest.raises(ValueError, match="adaptation"):
            DarkAdaptedModel(model, adaptation=-0.1)

    def test_rejects_negative_gain(self, model):
        with pytest.raises(ValueError, match="gain"):
            DarkAdaptedModel(model, adaptation=0.5, gain=-1.0)
