"""Tests for the iterative reference solver (unrelaxed Eq. 7)."""

import numpy as np
import pytest

from repro.color.dkl import RGB_TO_DKL
from repro.core.adjust import adjust_tiles
from repro.core.optimizer import optimize_tiles
from repro.perception.model import ParametricModel

from reference_solver import solve_tile_reference, true_objective_bits


def _tile(rng, pixels=4, ecc=30.0, spread=0.02):
    model = ParametricModel()
    base = rng.uniform(0.3, 0.6, 3)
    tile = np.clip(base + rng.normal(0, spread, (pixels, 3)), 0, 1)
    axes = model.semi_axes(tile, np.full(pixels, ecc))
    return tile, axes


class TestTrueObjective:
    def test_constant_tile_is_zero(self):
        tile = np.full((8, 3), 0.5)
        assert true_objective_bits(tile) == pytest.approx(0.0)

    def test_wider_spread_costs_more(self, rng):
        narrow = np.clip(0.5 + rng.normal(0, 0.01, (8, 3)), 0, 1)
        wide = np.clip(0.5 + rng.normal(0, 0.1, (8, 3)), 0, 1)
        assert true_objective_bits(wide) > true_objective_bits(narrow)

    def test_full_range_cost(self):
        tile = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert true_objective_bits(tile) == pytest.approx(3 * np.log2(256.0))


@pytest.mark.slow  # scipy-grade iterative reference solver
class TestSolver:
    def test_respects_constraints(self, rng):
        tile, axes = _tile(rng)
        solution = solve_tile_reference(tile, axes, maxiter=80)
        dkl = (solution.adjusted - tile) @ RGB_TO_DKL.T
        norms = np.sqrt(np.sum(np.square(dkl / axes), axis=1))
        assert norms.max() <= 1.0 + 1e-6

    def test_improves_objective(self, rng):
        tile, axes = _tile(rng)
        solution = solve_tile_reference(tile, axes, maxiter=80)
        assert solution.objective_bits <= solution.initial_bits + 1e-6

    def test_output_in_gamut(self, rng):
        tile, axes = _tile(rng)
        solution = solve_tile_reference(tile, axes, maxiter=50)
        assert solution.adjusted.min() >= 0.0
        assert solution.adjusted.max() <= 1.0

    def test_analytical_solution_is_competitive(self, rng):
        """The relaxed analytical solution should capture most of what
        the expensive iterative solver finds on easy tiles."""
        gaps = []
        for seed in range(4):
            tile, axes = _tile(np.random.default_rng(seed))
            iterative = solve_tile_reference(tile, axes, maxiter=80)
            analytical = optimize_tiles(tile[None], axes[None])
            analytical_bits = true_objective_bits(analytical.adjusted[0])
            gaps.append(analytical_bits - iterative.objective_bits)
        # Analytical may be slightly worse (it is a relaxation) but not
        # catastrophically so.
        assert np.mean(gaps) < 3.0

    def test_validates_shapes(self, rng):
        with pytest.raises(ValueError, match=r"\(pixels, 3\)"):
            solve_tile_reference(np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="match"):
            solve_tile_reference(np.zeros((4, 3)), np.full((5, 3), 1e-4))

    def test_blue_adjustment_reduces_true_objective(self, rng):
        """Sanity: the analytical adjustment helps the *unrelaxed*
        objective too, not just the relaxed one."""
        improvements = []
        for seed in range(5):
            tile, axes = _tile(np.random.default_rng(100 + seed), pixels=8)
            adjusted = adjust_tiles(tile[None], axes[None], 2).adjusted[0]
            improvements.append(
                true_objective_bits(tile) - true_objective_bits(adjusted)
            )
        assert np.mean(improvements) > 0.0
