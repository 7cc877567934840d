"""Tests for the frame-level perceptual encoding pipeline (the codec)."""

import numpy as np
import pytest

from repro import DEFAULT_FOVEAL_RADIUS_DEG, FrameContext, PerceptualCodec, get_codec
from repro.perception.model import ParametricModel, ScaledModel
from repro.scenes.display import QUEST2_DISPLAY


def _encode(codec, frame, eccentricity):
    return codec.encode(FrameContext(frame, eccentricity=eccentricity))


@pytest.fixture(scope="module")
def encoder():
    return PerceptualCodec()


@pytest.fixture(scope="module")
def result(encoder, ecc_map_64_module):
    frame = _smooth(np.random.default_rng(7))
    return _encode(encoder, frame, ecc_map_64_module)


@pytest.fixture(scope="module")
def ecc_map_64_module():
    return QUEST2_DISPLAY.eccentricity_map(64, 64)


def _smooth(rng, size=64):
    ys = np.linspace(0.2, 0.6, size)[:, None, None]
    xs = np.linspace(0.0, 0.2, size)[None, :, None]
    base = ys + xs * np.array([1.0, 0.5, 0.25])
    return np.clip(base + rng.normal(0, 0.004, (size, size, 3)), 0.0, 1.0)


class TestFrameResult:
    def test_improves_on_bd_for_smooth_content(self, result):
        assert result.breakdown.total_bits < result.baseline_breakdown.total_bits

    def test_perceptual_guarantee(self, result):
        assert result.max_mahalanobis <= 1.0 + 1e-9

    def test_frames_have_original_shape(self, result):
        assert result.adjusted_frame.shape == (64, 64, 3)
        assert result.adjusted_srgb.shape == (64, 64, 3)
        assert result.original_srgb.shape == (64, 64, 3)

    def test_srgb_dtypes(self, result):
        assert result.adjusted_srgb.dtype == np.uint8
        assert result.original_srgb.dtype == np.uint8

    def test_axis_fractions_sum_to_one(self, result):
        assert sum(result.axis_fractions.values()) == pytest.approx(1.0)

    def test_case2_fraction_in_range(self, result):
        assert 0.0 <= result.case2_fraction <= 1.0

    def test_reduction_properties_consistent(self, result):
        vs_raw = result.bandwidth_reduction_vs_uncompressed
        assert vs_raw == pytest.approx(1 - result.breakdown.bits_per_pixel / 24.0)
        vs_bd = result.bandwidth_reduction_vs_bd
        assert vs_bd == pytest.approx(
            1 - result.breakdown.total_bits / result.baseline_breakdown.total_bits
        )


class TestFovealBypass:
    def test_foveal_pixels_untouched(self, rng):
        frame = _smooth(rng)
        ecc = QUEST2_DISPLAY.eccentricity_map(64, 64)
        result = _encode(PerceptualCodec(), frame, ecc)
        foveal = ecc < DEFAULT_FOVEAL_RADIUS_DEG
        assert foveal.any()
        shift = np.abs(result.adjusted_frame - frame)[foveal]
        assert shift.max() < 1e-6

    def test_zero_radius_adjusts_everything(self, rng):
        frame = _smooth(rng)
        ecc = QUEST2_DISPLAY.eccentricity_map(64, 64)
        bypass = _encode(PerceptualCodec(), frame, ecc)
        adjust_all = _encode(PerceptualCodec(foveal_radius_deg=0.0), frame, ecc)
        assert adjust_all.breakdown.total_bits <= bypass.breakdown.total_bits

    def test_everything_foveal_is_identity(self, rng):
        frame = _smooth(rng)
        result = _encode(PerceptualCodec(foveal_radius_deg=90.0), frame, 5.0)
        assert np.allclose(result.adjusted_frame, frame, atol=1e-7)
        assert result.max_mahalanobis == 0.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="foveal_radius_deg"):
            PerceptualCodec(foveal_radius_deg=-1.0)

    def test_nan_radius_rejected(self):
        """``ecc < nan`` is false everywhere, so NaN would pin no pixel."""
        with pytest.raises(ValueError, match="foveal_radius_deg"):
            PerceptualCodec(foveal_radius_deg=float("nan"))


class TestInputHandling:
    def test_scalar_eccentricity_broadcast(self, encoder, rng):
        frame = _smooth(rng)
        result = _encode(encoder, frame, 25.0)
        assert result.grid.height == 64

    def test_mismatched_eccentricity_shape(self, encoder, rng):
        frame = _smooth(rng)
        with pytest.raises(ValueError, match="does not match"):
            _encode(encoder, frame, np.zeros((32, 32)))

    def test_bad_frame_shape(self, encoder):
        with pytest.raises(ValueError, match=r"\(H, W, 3\)"):
            _encode(encoder, np.zeros((64, 64)), 25.0)

    def test_nan_eccentricity_rejected_before_the_kernel(self, encoder, rng):
        """A NaN eccentricity is named by the context that receives it,
        before the law could turn it into NaN semi-axes."""
        with pytest.raises(ValueError, match="eccentricity map contains NaN"):
            _encode(encoder, _smooth(rng), float("nan"))

    def test_non_multiple_of_tile_size(self, encoder, rng):
        frame = np.clip(_smooth(rng)[:50, :37], 0, 1)
        result = _encode(encoder, frame, 25.0)
        assert result.adjusted_frame.shape == (50, 37, 3)
        assert result.breakdown.n_pixels == 50 * 37

    def test_larger_tile_size(self, rng):
        frame = _smooth(rng)
        result = _encode(PerceptualCodec(tile_size=8), frame, 25.0)
        assert result.grid.tile_size == 8
        assert result.max_mahalanobis <= 1.0 + 1e-9

    def test_tile_size_configured_through_registry(self):
        assert get_codec("perceptual", tile_size=8).tile_size == 8

    @pytest.mark.parametrize("tile_size", [0, -4])
    def test_tile_size_below_one_rejected(self, tile_size):
        with pytest.raises(ValueError, match="tile_size"):
            get_codec("perceptual", tile_size=tile_size)


class TestModelInjection:
    def test_smaller_ellipsoids_compress_less(self, rng):
        frame = _smooth(rng)
        base = ParametricModel()
        sensitive = ScaledModel(base, 0.25)
        normal = _encode(PerceptualCodec(model=base), frame, 25.0)
        tight = _encode(PerceptualCodec(model=sensitive), frame, 25.0)
        assert tight.breakdown.total_bits >= normal.breakdown.total_bits

    def test_case2_placement_forwarded(self, rng):
        frame = _smooth(rng)
        a = _encode(PerceptualCodec(case2_placement="hl"), frame, 25.0)
        b = _encode(PerceptualCodec(case2_placement="lh"), frame, 25.0)
        assert not np.array_equal(a.adjusted_srgb, b.adjusted_srgb)

    def test_deterministic(self, encoder, rng):
        frame = _smooth(rng)
        first = _encode(encoder, frame, 25.0)
        second = _encode(encoder, frame, 25.0)
        assert np.array_equal(first.adjusted_srgb, second.adjusted_srgb)
