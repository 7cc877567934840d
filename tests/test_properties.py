"""Cross-module property tests (hypothesis-driven invariants).

These pin the library-wide contracts on randomized inputs that unit
tests only probe pointwise: the perceptual guarantee, monotonicity of
the optimizer, codec consistency, and determinism.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FrameContext, PerceptualCodec
from repro.color.srgb import encode_srgb8
from repro.core.adjust import adjust_tiles
from repro.core.optimizer import optimize_tiles, tile_bd_bits
from repro.encoding.bd import bd_breakdown
from repro.perception.geometry import (
    channel_extrema,
    channel_halfwidth,
    mahalanobis,
)
from repro.perception.model import ParametricModel

from perception.geometry_reference import channel_extrema_paper

MODEL = ParametricModel()


def _random_tiles(seed: int, n_tiles: int, pixels: int, ecc: float):
    rng = np.random.default_rng(seed)
    tiles = rng.uniform(0.05, 0.95, (n_tiles, pixels, 3))
    axes = MODEL.semi_axes(tiles, np.full((n_tiles, pixels), ecc))
    return tiles, axes


class TestGeometryProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.5, max_value=55.0),
        st.integers(min_value=0, max_value=2),
    )
    def test_extrema_invariants(self, seed, ecc, axis):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0.05, 0.95, (8, 3))
        axes = MODEL.semi_axes(centers, np.full(8, ecc))
        extrema = channel_extrema(centers, axes, axis)
        # High dominates low along the chosen channel.
        assert np.all(extrema.high[:, axis] >= extrema.low[:, axis])
        # Both extrema sit exactly on the unit ellipsoid.
        assert np.allclose(mahalanobis(extrema.high, centers, axes), 1.0, atol=1e-8)
        # Displacement's own component is the half-width.
        assert np.allclose(
            extrema.displacement[:, axis], channel_halfwidth(axes, axis), atol=1e-12
        )
        # The paper's Eq. 11-13 recipe agrees.
        paper = channel_extrema_paper(centers, axes, axis)
        assert np.allclose(extrema.high, paper.high, atol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_halfwidth_scales_linearly_with_axes(self, seed):
        rng = np.random.default_rng(seed)
        axes = rng.uniform(1e-6, 1e-3, (5, 3))
        for channel in range(3):
            assert np.allclose(
                channel_halfwidth(axes * 3.0, channel),
                3.0 * channel_halfwidth(axes, channel),
            )


class TestAdjustmentProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=1.0, max_value=50.0),
        st.integers(min_value=0, max_value=2),
    )
    def test_guarantee_and_span(self, seed, pixels, ecc, axis):
        tiles, axes = _random_tiles(seed, 4, pixels, ecc)
        result = adjust_tiles(tiles, axes, axis)
        assert mahalanobis(result.adjusted, tiles, axes).max() <= 1.0 + 1e-9
        assert result.adjusted.min() >= 0.0 and result.adjusted.max() <= 1.0
        span_before = tiles[..., axis].max(axis=1) - tiles[..., axis].min(axis=1)
        moved = result.adjusted[..., axis]
        assert np.all(moved.max(axis=1) - moved.min(axis=1) <= span_before + 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_optimizer_dominates_single_axes(self, seed):
        tiles, axes = _random_tiles(seed, 6, 16, 25.0)
        best = optimize_tiles(tiles, axes, axes=(2, 0))
        for single in (2, 0):
            lone = optimize_tiles(tiles, axes, axes=(single,))
            assert np.all(best.bits <= lone.bits)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_optimizer_bits_consistent_with_accounting(self, seed):
        tiles, axes = _random_tiles(seed, 6, 16, 25.0)
        optimized = optimize_tiles(tiles, axes)
        breakdown = bd_breakdown(optimized.adjusted_srgb)
        assert optimized.bits.sum() == breakdown.total_bits - breakdown.header_bits
        assert np.array_equal(optimized.bits, tile_bd_bits(optimized.adjusted_srgb))


class TestPipelineProperties:
    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=12, max_value=40),
        st.integers(min_value=12, max_value=40),
    )
    def test_arbitrary_frame_sizes(self, seed, height, width):
        rng = np.random.default_rng(seed)
        ramp = np.linspace(0.2, 0.7, height)[:, None, None]
        frame = np.clip(
            ramp + rng.normal(0, 0.01, (height, width, 3)), 0, 1
        )
        result = PerceptualCodec().encode(FrameContext(frame, eccentricity=25.0))
        assert result.adjusted_frame.shape == (height, width, 3)
        assert result.max_mahalanobis <= 1.0 + 1e-9
        assert result.breakdown.n_pixels == height * width
        # Deterministic re-encode.
        again = PerceptualCodec().encode(FrameContext(frame, eccentricity=25.0))
        assert np.array_equal(result.adjusted_srgb, again.adjusted_srgb)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_srgb_quantization_error_bounded(self, seed):
        """The displayed (quantized) frame never drifts more than half a
        code beyond the analytically adjusted one."""
        rng = np.random.default_rng(seed)
        frame = np.clip(0.5 + rng.normal(0, 0.05, (24, 24, 3)), 0, 1)
        result = PerceptualCodec().encode(FrameContext(frame, eccentricity=25.0))
        analytic_codes = encode_srgb8(result.adjusted_frame)
        assert np.array_equal(analytic_codes, result.adjusted_srgb)
