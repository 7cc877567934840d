"""Tests for the SCC set-cover baseline (sRGB-space JND proxy)."""

import numpy as np
import pytest

from repro.baselines.scc import (
    DEFAULT_SCC_ECCENTRICITY,
    RADIUS_FLOOR,
    SCCTable,
    grid_cover,
    jnd_radius,
    scc_bits_per_pixel,
)
from repro.perception.model import ParametricModel


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


@pytest.mark.slow  # full-gamut cover construction takes minutes
class TestGridCover:
    @pytest.fixture(scope="class")
    def table(self):
        return grid_cover(model=ParametricModel())

    def test_covers_random_colors(self, table):
        model = ParametricModel()
        rng = np.random.default_rng(3)
        colors = rng.uniform(0, 1, (200, 3))
        reps = table.representatives
        radii = jnd_radius(reps, DEFAULT_SCC_ECCENTRICITY, model)
        covered = np.zeros(colors.shape[0], dtype=bool)
        for start in range(0, reps.shape[0], 50_000):
            block = reps[start : start + 50_000]
            distances = np.linalg.norm(
                colors[None, :, :] - block[:, None, :], axis=-1
            )
            covered |= (distances <= radii[start : start + 50_000][:, None]).any(axis=0)
        assert covered.all()

    def test_smaller_than_universe(self, table):
        assert table.size < (1 << 24)

    def test_bits_between_bd_and_raw(self, table):
        assert 12 <= table.bits_per_pixel < 24

    def test_table_sizes_reported(self, table):
        assert table.decode_table_bytes == table.size * 3
        assert table.encode_table_bytes >= (1 << 24)

    def test_reps_in_gamut(self, table):
        assert table.representatives.min() >= 0.0
        assert table.representatives.max() <= 1.0

    def test_count_only_matches_full(self):
        model = ParametricModel()
        full = grid_cover(model=model, samples_per_axis=16)
        counted = grid_cover(model=model, samples_per_axis=16, count_only=True)
        assert counted.size == full.size
        assert counted.representatives.shape == (0, 3)


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


class TestSCCTable:
    def test_empty_cover_rejected(self):
        table = SCCTable(representatives=np.zeros((0, 3)), universe_size=10, method="x")
        with pytest.raises(ValueError, match="empty"):
            _ = table.bits_per_pixel

    def test_single_color_table(self):
        table = SCCTable(representatives=np.zeros((1, 3)), universe_size=10, method="x")
        assert table.bits_per_pixel == 1

    def test_count_only_size(self):
        table = SCCTable(
            representatives=np.zeros((0, 3)),
            universe_size=10,
            method="grid",
            n_representatives=1000,
        )
        assert table.size == 1000
        assert table.bits_per_pixel == 10
