"""The rewritten encoder kernels equal their pre-rewrite oracles byte for byte.

``kernel_reference.py`` keeps the Base+Delta plan, the per-tile color
adjustment, its gamut clamp and the two-axis optimizer as they stood
before the package's kernels were rewritten (pixel-major plan, one
channel's extrema, a clamp that rescales only out-of-gamut pixels), and
the adjustment's phases before their per-pixel forms were (HL/LH over a
pixel-major copy, a clipped target with the case-2 rows assigned, a
step zeroed where the half-width is not positive, a move per channel).
Every output array must match in dtype, shape and bytes.
"""

from dataclasses import fields
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import kernel_reference as oracle
from repro.core.adjust import CASE2_PLACEMENTS, AxisAdjustment, _adjust_phases, adjust_tiles
from repro.core.optimizer import OptimizedTiles, optimize_tiles
from repro.encoding.bd import _plan, bd_breakdown, delta_widths
from repro.hardware.datapath import FixedPointSpec, quantize_fixed
from repro.perception.geometry import mahalanobis
from repro.perception.law import ParametricEllipsoidLaw

AXES = ((2, 0), (0, 2), (1,), (0, 1, 2), (1, 2))


def _assert_same_array(ours, theirs, name):
    assert isinstance(ours, np.ndarray), name
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
    assert ours.tobytes() == theirs.tobytes(), name


def _assert_same_adjustment(ours: AxisAdjustment, theirs: AxisAdjustment):
    for field in fields(AxisAdjustment):
        a, b = getattr(ours, field.name), getattr(theirs, field.name)
        if isinstance(b, np.ndarray):
            _assert_same_array(a, b, field.name)
        else:
            assert a == b, field.name


def _uint8_stack(content: str, n_tiles: int, pixels: int, rng) -> np.ndarray:
    if content == "flat":
        return np.full((n_tiles, pixels, 3), rng.integers(0, 256), dtype=np.uint8)
    if content == "narrow":
        # Small per-tile ranges keep the group widths small and varied.
        base = rng.integers(0, 240, (n_tiles, 1, 3))
        return (base + rng.integers(0, 16, (n_tiles, pixels, 3))).astype(np.uint8)
    return rng.integers(0, 256, (n_tiles, pixels, 3), dtype=np.uint8)


class TestPlan:
    @settings(max_examples=150, deadline=None)
    @given(
        tile_size=st.integers(1, 8),
        data=st.data(),
        n_tiles=st.sampled_from([1, 2, 7, 40]),
        content=st.sampled_from(["random", "narrow", "flat"]),
        seed=st.integers(0, 2**16),
    )
    def test_plan_equals_oracle(self, tile_size, data, n_tiles, content, seed):
        pixels = tile_size * tile_size
        divisors = [g for g in range(1, pixels + 1) if pixels % g == 0]
        group_size = data.draw(st.sampled_from(divisors), label="group_size")
        arr = _uint8_stack(content, n_tiles, pixels, np.random.default_rng(seed))

        bases, widths = _plan(arr, group_size)
        oracle_bases, oracle_widths = oracle._plan(arr, group_size)
        _assert_same_array(bases, oracle_bases, "bases")
        _assert_same_array(widths, oracle_widths, "widths")

    @pytest.mark.parametrize("content", ["random", "narrow", "flat"])
    def test_public_accounting_equals_oracle(self, content):
        arr = _uint8_stack(content, 30, 16, np.random.default_rng(5))
        _assert_same_array(delta_widths(arr), oracle.delta_widths(arr), "delta_widths")
        assert bd_breakdown(arr, n_pixels=400) == oracle.bd_breakdown(arr, n_pixels=400)


def _tiles_and_semi_axes(n_tiles, pixels, seed, pinned, scale):
    """Random tiles, semi-axes ``scale`` times a typical law's, foveal pins."""
    rng = np.random.default_rng(seed)
    tiles = rng.uniform(0.0, 1.0, (n_tiles, pixels, 3))
    typical_low, typical_high = [2e-4, 1e-5, 1e-5], [1.2e-3, 6e-5, 6e-5]
    semi_axes = scale * rng.uniform(typical_low, typical_high, (n_tiles, pixels, 3))
    foveal = rng.random((n_tiles, pixels)) < pinned
    semi_axes[foveal] = ParametricEllipsoidLaw.MIN_SEMI_AXIS
    return tiles, semi_axes


class TestAdjustTiles:
    @settings(max_examples=150, deadline=None)
    @given(
        n_tiles=st.integers(1, 12),
        pixels=st.sampled_from([1, 2, 4, 9, 16, 64]),
        axis=st.integers(0, 2),
        placement=st.sampled_from(CASE2_PLACEMENTS),
        pinned=st.sampled_from([0.0, 0.3, 1.0]),
        scale=st.sampled_from([0.1, 1.0, 30.0]),
        seed=st.integers(0, 2**16),
    )
    def test_adjust_tiles_equals_oracle(
        self, n_tiles, pixels, axis, placement, pinned, scale, seed
    ):
        tiles, semi_axes = _tiles_and_semi_axes(n_tiles, pixels, seed, pinned, scale)
        _assert_same_adjustment(
            adjust_tiles(tiles, semi_axes, axis, case2_placement=placement),
            oracle.adjust_tiles(tiles, semi_axes, axis, case2_placement=placement),
        )

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
    )
    @given(
        n_tiles=st.integers(1, 4),
        pixels=st.sampled_from([9, 16, 25]),
        axis=st.integers(0, 2),
        placement=st.sampled_from(CASE2_PLACEMENTS),
        seed=st.integers(0, 2**16),
    )
    def test_moves_leaving_the_cube_equal_oracle(self, n_tiles, pixels, axis, placement, seed):
        """The clamp's rare path: tiles near the cube's faces, large ellipsoids.

        Each channel sits within 0.02 of 0, within 0.02 of 1, or mid-cube,
        and the semi-axes are tens to hundreds of times a real observer's,
        so within one tile some moves leave through 0, some through 1 and
        some stay inside.  Clamped results land on a face up to rounding.
        """
        rng = np.random.default_rng(seed)
        shape = (n_tiles, pixels, 3)
        face = rng.integers(0, 3, shape)
        offset = rng.uniform(0.0, 0.02, shape)
        mid_cube = rng.uniform(0.3, 0.7, shape)
        tiles = np.select([face == 0, face == 1], [offset, 1.0 - offset], mid_cube)
        semi_axes = rng.uniform(0.02, 0.3, shape)

        unclamped = []
        clamp = oracle._clamp_to_gamut

        def recording_clamp(centers, moved):
            unclamped.append(moved)
            return clamp(centers, moved)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_clamp_to_gamut", recording_clamp)
            expected = oracle.adjust_tiles(tiles, semi_axes, axis, case2_placement=placement)
        (moved,) = unclamped
        below, above = (moved < 0.0).any(axis=-1), (moved > 1.0).any(axis=-1)
        inside = ~(below | above)
        assume((below.any(axis=1) & above.any(axis=1) & inside.any(axis=1)).any())

        result = adjust_tiles(tiles, semi_axes, axis, case2_placement=placement)
        _assert_same_adjustment(result, expected)
        assert result.adjusted.min() >= -1e-12 and result.adjusted.max() <= 1.0 + 1e-12
        assert mahalanobis(result.adjusted, tiles, semi_axes).max() <= 1.0 + 1e-9


#: The identity, and ``Q2.f`` grids from coarse to fine; a range of 0.5
#: puts many tiles' extrema on the rails.
QUANTIZERS = {
    "identity": None,
    "Q2.8": FixedPointSpec(frac_bits=8),
    "Q2.16": FixedPointSpec(frac_bits=16),
    "Q0.5-range.12": FixedPointSpec(frac_bits=12, total_range=0.5),
}


class TestAdjustPhases:
    @settings(max_examples=150, deadline=None)
    @given(
        n_tiles=st.integers(1, 12),
        pixels=st.sampled_from([1, 2, 4, 9, 16, 64]),
        axis=st.integers(0, 2),
        placement=st.sampled_from(CASE2_PLACEMENTS),
        quantizer=st.sampled_from(sorted(QUANTIZERS)),
        pinned=st.sampled_from([0.0, 0.3, 1.0]),
        scale=st.sampled_from([0.1, 1.0, 30.0, 3000.0]),
        seed=st.integers(0, 2**16),
    )
    def test_phases_equal_oracle(
        self, n_tiles, pixels, axis, placement, quantizer, pinned, scale, seed
    ):
        """HL/LH, target, step and move under every placement and quantizer.

        A scale of 3000 makes ellipsoids wide enough that moves leave the
        cube and, on the narrow grid, extrema sit on the rails.
        """
        tiles, semi_axes = _tiles_and_semi_axes(n_tiles, pixels, seed, pinned, scale)
        spec = QUANTIZERS[quantizer]
        kwargs = {} if spec is None else {"quantize": partial(quantize_fixed, spec=spec)}
        if spec is not None:
            tiles = np.clip(quantize_fixed(tiles, spec), 0.0, 1.0)
        _assert_same_adjustment(
            _adjust_phases(tiles, semi_axes, axis, placement, **kwargs),
            oracle._adjust_phases(tiles, semi_axes, axis, placement, **kwargs),
        )


class TestOptimizeTiles:
    @settings(max_examples=100, deadline=None)
    @given(
        n_tiles=st.integers(1, 12),
        pixels=st.sampled_from([1, 4, 16, 36]),
        axes=st.sampled_from(AXES),
        placement=st.sampled_from(CASE2_PLACEMENTS),
        pinned=st.sampled_from([0.0, 0.3]),
        scale=st.sampled_from([1.0, 30.0]),
        seed=st.integers(0, 2**16),
    )
    def test_optimize_tiles_equals_oracle(
        self, n_tiles, pixels, axes, placement, pinned, scale, seed
    ):
        tiles, semi_axes = _tiles_and_semi_axes(n_tiles, pixels, seed, pinned, scale)
        ours = optimize_tiles(tiles, semi_axes, axes=axes, case2_placement=placement)
        theirs = oracle.optimize_tiles(tiles, semi_axes, axes=axes, case2_placement=placement)
        for field in fields(OptimizedTiles):
            a, b = getattr(ours, field.name), getattr(theirs, field.name)
            if field.name == "per_axis":
                assert list(a) == list(b)
                for axis in b:
                    _assert_same_adjustment(a[axis], b[axis])
            else:
                _assert_same_array(a, b, field.name)
