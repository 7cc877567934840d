"""Tests for the analytical per-tile color adjustment (Fig. 6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adjust import CASE2_PLACEMENTS, adjust_tiles
from repro.perception.geometry import channel_extrema, mahalanobis
from repro.perception.model import ParametricModel

from kernel_reference import case2_plane


def _span(tiles, axis):
    """Per-tile channel span (max - min) of a ``(n_tiles, pixels, 3)`` stack."""
    channel = tiles[..., axis]
    return channel.max(axis=1) - channel.min(axis=1)


def _tiles_and_axes(rng, n_tiles=30, pixels=16, ecc=25.0, low=0.2, high=0.8):
    model = ParametricModel()
    tiles = rng.uniform(low, high, (n_tiles, pixels, 3))
    axes = model.semi_axes(tiles, np.full((n_tiles, pixels), ecc))
    return tiles, axes


class TestPerceptualConstraint:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_never_leaves_ellipsoid(self, rng, axis):
        tiles, axes = _tiles_and_axes(rng)
        result = adjust_tiles(tiles, axes, axis)
        distances = mahalanobis(result.adjusted, tiles, axes)
        assert distances.max() <= 1.0 + 1e-9

    def test_output_in_gamut(self, rng):
        tiles, axes = _tiles_and_axes(rng, low=0.0, high=1.0)
        result = adjust_tiles(tiles, axes, 2)
        assert result.adjusted.min() >= 0.0
        assert result.adjusted.max() <= 1.0

    def test_gamut_edge_tiles_stay_constrained(self, rng):
        """Tiles hugging the cube boundary get clamped *and* stay inside
        their ellipsoids."""
        tiles, axes = _tiles_and_axes(rng, low=0.97, high=1.0)
        result = adjust_tiles(tiles, axes, 2)
        assert result.adjusted.max() <= 1.0
        assert mahalanobis(result.adjusted, tiles, axes).max() <= 1.0 + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2), st.integers(min_value=2, max_value=25))
    def test_constraint_random_tiles(self, axis, pixels):
        rng = np.random.default_rng(axis * 100 + pixels)
        tiles, axes = _tiles_and_axes(rng, n_tiles=5, pixels=pixels)
        result = adjust_tiles(tiles, axes, axis)
        assert mahalanobis(result.adjusted, tiles, axes).max() <= 1.0 + 1e-9
        assert result.adjusted.min() >= 0.0 and result.adjusted.max() <= 1.0


class TestSpanReduction:
    @pytest.mark.parametrize("axis", [0, 2])
    def test_span_never_grows(self, rng, axis):
        tiles, axes = _tiles_and_axes(rng)
        result = adjust_tiles(tiles, axes, axis)
        assert np.all(_span(result.adjusted, axis) <= _span(tiles, axis) + 1e-12)

    def test_case2_collapses_span(self, rng):
        # Nearly-identical pixels guarantee a common plane.
        base = rng.uniform(0.3, 0.7, (10, 1, 3))
        tiles = np.clip(base + rng.normal(0, 1e-4, (10, 16, 3)), 0, 1)
        model = ParametricModel()
        axes = model.semi_axes(tiles, np.full((10, 16), 30.0))
        result = adjust_tiles(tiles, axes, 2)
        assert result.case2.all()
        assert np.all(_span(result.adjusted, 2) < 1e-9)

    def test_case1_span_is_hl_minus_lh(self, rng):
        # A high-contrast tile forces case 1; the optimal span equals
        # HL - LH exactly (pre-quantization).
        tiles, axes = _tiles_and_axes(rng, low=0.05, high=0.95)
        extrema = channel_extrema(tiles, axes, 2)
        hl, lh, case2 = case2_plane(
            extrema.low[..., 2], extrema.high[..., 2]
        )
        result = adjust_tiles(tiles, axes, 2)
        case1 = ~result.case2
        assert case1.any()  # premise: contrast actually forced case 1
        assert np.allclose(_span(result.adjusted, 2)[case1], (hl - lh)[case1], atol=1e-9)

    def test_case_flags_match_plane_geometry(self, rng):
        tiles, axes = _tiles_and_axes(rng, low=0.1, high=0.9)
        extrema = channel_extrema(tiles, axes, 2)
        _, _, expected_case2 = case2_plane(extrema.low[..., 2], extrema.high[..., 2])
        result = adjust_tiles(tiles, axes, 2)
        assert np.array_equal(result.case2, expected_case2)


class TestFovealPinning:
    def test_tiny_axes_pin_pixels(self, rng):
        tiles, axes = _tiles_and_axes(rng)
        axes[:, :8, :] = 1e-9  # half of each tile is foveal
        result = adjust_tiles(tiles, axes, 2)
        assert np.allclose(result.adjusted[:, :8, :], tiles[:, :8, :], atol=1e-7)

    def test_pinned_pixels_constrain_tile(self, rng):
        # Two pinned pixels with different blue values put a floor on
        # the achievable span.
        tiles, axes = _tiles_and_axes(rng, n_tiles=5)
        axes[:, :2, :] = 1e-9
        tiles[:, 0, 2] = 0.2
        tiles[:, 1, 2] = 0.6
        result = adjust_tiles(tiles, axes, 2)
        assert np.all(_span(result.adjusted, 2) >= 0.4 - 1e-6)
        assert not result.case2.any()


class TestCase2Placement:
    def test_all_placements_collapse_span(self, rng):
        base = rng.uniform(0.3, 0.7, (8, 1, 3))
        tiles = np.clip(base + rng.normal(0, 1e-4, (8, 16, 3)), 0, 1)
        axes = ParametricModel().semi_axes(tiles, np.full((8, 16), 30.0))
        for placement in CASE2_PLACEMENTS:
            result = adjust_tiles(tiles, axes, 2, case2_placement=placement)
            assert result.case2.all()
            assert np.all(_span(result.adjusted, 2) < 1e-9), placement

    def test_placements_differ_in_target(self, rng):
        base = rng.uniform(0.3, 0.7, (8, 1, 3))
        tiles = np.clip(base + rng.normal(0, 1e-4, (8, 16, 3)), 0, 1)
        axes = ParametricModel().semi_axes(tiles, np.full((8, 16), 30.0))
        hl = adjust_tiles(tiles, axes, 2, case2_placement="hl").adjusted
        lh = adjust_tiles(tiles, axes, 2, case2_placement="lh").adjusted
        assert np.all(lh[..., 2].mean(axis=1) > hl[..., 2].mean(axis=1))

    def test_invalid_placement(self, rng):
        tiles, axes = _tiles_and_axes(rng, n_tiles=1)
        with pytest.raises(ValueError, match="case2_placement"):
            adjust_tiles(tiles, axes, 2, case2_placement="median")


class TestValidation:
    def test_rejects_bad_tile_shape(self, rng):
        with pytest.raises(ValueError, match="tiles_rgb"):
            adjust_tiles(np.zeros((4, 16)), np.zeros((4, 16)), 2)

    def test_rejects_out_of_range_colors(self, rng):
        tiles = np.full((1, 4, 3), 1.5)
        axes = np.full((1, 4, 3), 1e-4)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            adjust_tiles(tiles, axes, 2)

    def test_rejects_nan_tile(self, rng):
        tiles, axes = _tiles_and_axes(rng, n_tiles=4)
        tiles[2, 3, 0] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            adjust_tiles(tiles, axes, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_semi_axis(self, rng, bad):
        tiles, axes = _tiles_and_axes(rng, n_tiles=4)
        axes[1, 0, 2] = bad
        with pytest.raises(ValueError, match="semi-axes"):
            adjust_tiles(tiles, axes, 2)

    def test_single_pixel_tile_unchanged_span(self, rng):
        tiles, axes = _tiles_and_axes(rng, n_tiles=3, pixels=1)
        result = adjust_tiles(tiles, axes, 2)
        # One pixel is always case 2 with zero span before and after.
        assert result.case2.all()
        assert np.all(_span(tiles, 2) == 0)
        assert np.all(_span(result.adjusted, 2) == 0)


class TestCase2PlaneHelper:
    """The HL/LH reduction the kernel oracle (``kernel_reference``) builds on."""

    def test_shapes_and_values(self):
        low = np.array([[0.1, 0.3], [0.2, 0.2]])
        high = np.array([[0.5, 0.6], [0.3, 0.25]])
        hl, lh, case2 = case2_plane(low, high)
        assert np.allclose(hl, [0.3, 0.2])
        assert np.allclose(lh, [0.5, 0.25])
        assert case2.all()

    def test_case1_detection(self):
        low = np.array([[0.1, 0.6]])
        high = np.array([[0.3, 0.9]])  # intervals [0.1,0.3] and [0.6,0.9]
        hl, lh, case2 = case2_plane(low, high)
        assert hl[0] == 0.6 and lh[0] == 0.3
        assert not case2[0]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="matching"):
            case2_plane(np.zeros((2, 3)), np.zeros((3, 2)))
