"""Tests for the quality-analysis experiment runners."""

import pytest

from repro.experiments.common import ExperimentConfig
from repro.experiments.quality import (
    RD_SCALES,
    run_flicker,
    run_foveation_comparison,
    run_rate_distortion,
)

TINY = ExperimentConfig(height=96, width=96, n_frames=1)


class TestRateDistortion:
    @pytest.fixture(scope="class")
    def result(self):
        return run_rate_distortion(TINY)

    def test_bpp_monotone_in_scale(self, result):
        values = [result.bpp[s] for s in RD_SCALES]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_psnr_monotone_down(self, result):
        values = [result.psnr_db[s] for s in RD_SCALES]
        assert all(b <= a + 0.5 for a, b in zip(values, values[1:]))

    def test_visibility_monotone_up(self, result):
        values = [result.exceedance[s] for s in RD_SCALES]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_visibility_scales_linearly(self, result):
        """Exceedance is shift/threshold; shifts scale with the
        ellipsoids, so doubling the scale doubles the exceedance."""
        assert result.exceedance[2.0] == pytest.approx(
            2 * result.exceedance[1.0], rel=0.1
        )

    def test_table_renders(self, result):
        assert "PSNR" in result.table()


class TestFlicker:
    @pytest.fixture(scope="class")
    def result(self):
        return run_flicker(TINY, n_frames=3)

    def test_no_pathological_flicker(self, result):
        """The frame-independent adjustment must not amplify temporal
        variation by more than a modest factor anywhere."""
        assert result.worst_amplification() < 1.3

    def test_excess_below_discrimination_scale(self, result):
        """Residual temporal excess stays at the few-code level — the
        same order as the (invisible) spatial shifts."""
        assert all(value < 2.0 for value in result.excess_codes.values())

    def test_all_scenes_measured(self, result):
        assert set(result.amplification) == set(TINY.scene_names)


class TestFoveationComparison:
    @pytest.fixture(scope="class")
    def result(self):
        return run_foveation_comparison(TINY)

    def test_foveation_cheaper_but_lossy(self, result):
        """Foveation reduces traffic far below BD (it discards spatial
        detail); ours reduces less but invisibly."""
        assert result.bpp["foveated"] < result.bpp["ours"] < result.bpp["BD"]

    def test_composition_is_best(self, result):
        """The orthogonality claim: color adjustment still helps after
        foveation."""
        assert result.bpp["foveated+ours"] < result.bpp["foveated"]

    def test_table_renders(self, result):
        assert "foveated+ours" in result.table()
