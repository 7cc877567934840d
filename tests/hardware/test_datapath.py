"""Tests for the fixed-point CAU datapath model."""

import numpy as np
import pytest

from repro.color.srgb import encode_srgb8
from repro.core.adjust import adjust_tiles
from repro.hardware.datapath import (
    FixedPointSpec,
    adjust_tiles_fixed_point,
    quantize_fixed,
)
from repro.perception.model import ParametricModel


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(5)
    model = ParametricModel()
    tiles = rng.uniform(0.2, 0.8, (100, 16, 3))
    axes = model.semi_axes(tiles, np.full((100, 16), 25.0))
    return tiles, axes


class TestQuantize:
    def test_on_grid_values_unchanged(self):
        spec = FixedPointSpec(frac_bits=8)
        values = np.array([0.0, 0.25, -1.5, 1.99609375])
        assert np.array_equal(quantize_fixed(values, spec), values)

    def test_rounds_to_nearest(self):
        spec = FixedPointSpec(frac_bits=2)
        assert quantize_fixed(0.3, spec) == 0.25
        assert quantize_fixed(0.4, spec) == 0.5

    def test_saturates_at_rails(self):
        spec = FixedPointSpec(frac_bits=4)
        assert quantize_fixed(5.0, spec) == spec.total_range - spec.resolution
        assert quantize_fixed(-5.0, spec) == -spec.total_range

    def test_resolution(self):
        assert FixedPointSpec(frac_bits=10).resolution == 2.0**-10

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError, match="frac_bits"):
            FixedPointSpec(frac_bits=0)
        with pytest.raises(ValueError, match="total_range"):
            FixedPointSpec(total_range=0.0)
        with pytest.raises(ValueError, match="total_range"):
            FixedPointSpec(total_range=float("nan"))
        with pytest.raises(ValueError, match="frac_bits"):
            FixedPointSpec(frac_bits=2.5)


class TestDatapathAccuracy:
    def test_display_exact_at_20_bits(self, workload):
        tiles, axes = workload
        reference = adjust_tiles(tiles, axes, 2)
        fixed = adjust_tiles_fixed_point(tiles, axes, 2, FixedPointSpec(frac_bits=20))
        assert np.array_equal(
            encode_srgb8(fixed.adjusted), encode_srgb8(reference.adjusted)
        )

    def test_within_one_code_at_12_bits(self, workload):
        tiles, axes = workload
        reference = adjust_tiles(tiles, axes, 2)
        fixed = adjust_tiles_fixed_point(tiles, axes, 2, FixedPointSpec(frac_bits=12))
        error = np.abs(
            encode_srgb8(fixed.adjusted).astype(int)
            - encode_srgb8(reference.adjusted).astype(int)
        )
        assert error.max() <= 1

    def test_error_shrinks_with_precision(self, workload):
        tiles, axes = workload
        reference = adjust_tiles(tiles, axes, 2).adjusted
        errors = []
        for frac_bits in (6, 10, 14, 18):
            fixed = adjust_tiles_fixed_point(
                tiles, axes, 2, FixedPointSpec(frac_bits=frac_bits)
            )
            errors.append(np.abs(fixed.adjusted - reference).max())
        assert all(b <= a for a, b in zip(errors, errors[1:]))

    def test_case_flags_match_reference(self, workload):
        """Case classification is comparison-only and must be robust to
        the grid at sane precisions."""
        tiles, axes = workload
        reference = adjust_tiles(tiles, axes, 2)
        fixed = adjust_tiles_fixed_point(tiles, axes, 2, FixedPointSpec(frac_bits=16))
        agreement = (fixed.case2 == reference.case2).mean()
        assert agreement > 0.95

    def test_outputs_in_gamut(self, workload):
        tiles, axes = workload
        fixed = adjust_tiles_fixed_point(tiles, axes, 2, FixedPointSpec(frac_bits=8))
        assert fixed.adjusted.min() >= 0.0
        assert fixed.adjusted.max() <= 1.0

    def test_guarantee_at_display_precision(self, workload):
        """At 12 bits the color *change* beyond the reference stays
        below one display code even where strict ellipsoid arithmetic
        is violated (see module docstring)."""
        tiles, axes = workload
        reference = adjust_tiles(tiles, axes, 2).adjusted
        fixed = adjust_tiles_fixed_point(
            tiles, axes, 2, FixedPointSpec(frac_bits=12)
        ).adjusted
        assert np.abs(fixed - reference).max() < 1.5 / 255.0

    def test_red_axis_supported(self, workload):
        tiles, axes = workload
        spec = FixedPointSpec(frac_bits=16)
        fixed = adjust_tiles_fixed_point(tiles, axes, 0, spec)
        assert fixed.axis == 0
        # Spans along R of the datapath's input grid and of its output.
        before = np.clip(quantize_fixed(tiles, spec), 0.0, 1.0)[..., 0]
        after = fixed.adjusted[..., 0]
        span_before = before.max(axis=1) - before.min(axis=1)
        assert np.all(after.max(axis=1) - after.min(axis=1) <= span_before + 2 * 2.0**-16)


class TestNonFiniteInput:
    """NaN fails the kernel's checks: the model raises, never returns NaN colors."""

    def test_rejects_nan_tile(self, workload):
        tiles, axes = workload
        tiles = tiles.copy()
        tiles[3, 5, 1] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            adjust_tiles_fixed_point(tiles, axes, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_semi_axis(self, workload, bad):
        tiles, axes = workload
        axes = axes.copy()
        axes[7, 2, 0] = bad
        with pytest.raises(ValueError, match="semi-axes"):
            adjust_tiles_fixed_point(tiles, axes, 2)
