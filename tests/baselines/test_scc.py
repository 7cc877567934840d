"""Tests for the SCC set-cover baseline (sRGB-space JND proxy)."""

import numpy as np
import pytest
import scc_reference

from repro.baselines.scc import (
    DEFAULT_SCC_ECCENTRICITY,
    RADIUS_FLOOR,
    grid_cover,
    jnd_radius,
    scc_bits_per_pixel,
)

#: Cover sizes of the per-cell loop construction (``scc_reference``).
PINNED_COVERS = {16: 7_908_215, 64: 7_317_184}


class TestJndRadius:
    def test_floor_applies(self, model):
        radii = jnd_radius(np.array([[0.5, 0.5, 0.5]]), 0.0, model)
        assert radii[0] >= RADIUS_FLOOR

    def test_grows_with_eccentricity(self, model):
        colors = np.full((5, 3), 0.5)
        near = jnd_radius(colors, 10.0, model)
        far = jnd_radius(colors, 40.0, model)
        assert np.all(far >= near)

    def test_batch_shape(self, model):
        assert jnd_radius(np.zeros((4, 7, 3)), 20.0, model).shape == (4, 7)

    def test_rejects_bad_shape(self, model):
        with pytest.raises(ValueError, match="trailing axis"):
            jnd_radius(np.zeros((4, 2)), 20.0, model)


@pytest.fixture(scope="module")
def covers():
    """Cell count of the cover at each pinned grid."""
    return {samples: grid_cover(samples) for samples in PINNED_COVERS}


@pytest.fixture(scope="module")
def sampled_cells():
    """200 random colors and, per grid, the bounds of each one's cell."""
    colors = np.random.default_rng(3).uniform(0, 1, (200, 3))
    bounds = {samples: scc_reference.cell_bounds(colors, samples) for samples in PINNED_COVERS}
    return colors, bounds


class TestGridCover:
    def test_pinned_counts(self, covers):
        assert covers == PINNED_COVERS

    @pytest.mark.slow  # the per-cell loop takes seconds per grid
    @pytest.mark.parametrize("samples", sorted(PINNED_COVERS))
    def test_count_matches_oracle(self, covers, samples):
        oracle = scc_reference.grid_cover(samples_per_axis=samples, count_only=True)
        assert covers[samples] == oracle.size

    @pytest.mark.slow
    def test_covers_random_colors(self, sampled_cells):
        """Each color lies in its own cell and within its centre's radius."""
        colors, cells = sampled_cells
        for starts, widths in cells.values():
            assert np.all((starts <= colors) & (colors < starts + widths))
            centres = np.minimum(starts + widths / 2, 1.0)
            radii = jnd_radius(centres, DEFAULT_SCC_ECCENTRICITY)
            assert np.all(np.linalg.norm(colors - centres, axis=-1) <= radii)

    @pytest.mark.slow
    def test_reps_in_gamut(self, sampled_cells):
        for starts, widths in sampled_cells[1].values():
            centres = np.minimum(starts + widths / 2, 1.0)
            assert centres.min() >= 0.0
            assert centres.max() <= 1.0

    def test_smaller_than_universe(self, covers):
        assert covers[64] < (1 << 24)

    def test_bits_between_bd_and_raw(self):
        assert 12 <= scc_bits_per_pixel() < 24


class TestBitsPerPixel:
    def test_cached(self):
        first = scc_bits_per_pixel()
        second = scc_bits_per_pixel()
        assert first == second

    def test_scc_worse_than_typical_bd(self):
        """The paper's point: SCC cannot beat BD for DRAM traffic."""
        assert scc_bits_per_pixel() > 12

    def test_scc_better_than_nocom(self):
        assert scc_bits_per_pixel() < 24
