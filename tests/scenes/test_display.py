"""Tests for the display geometry and eccentricity maps."""

import numpy as np
import pytest

from repro.scenes.display import (
    QUEST2_DISPLAY,
    QUEST2_HIGH_RESOLUTION,
    QUEST2_LOW_RESOLUTION,
    QUEST2_REFRESH_RATES,
    DisplayGeometry,
)


class TestEccentricityMap:
    def test_zero_at_fixation(self):
        ecc = QUEST2_DISPLAY.eccentricity_map(65, 65, fixation=(0.5, 0.5))
        assert ecc[32, 32] < 1.5  # pixel-center quantization only

    def test_grows_away_from_fixation(self):
        ecc = QUEST2_DISPLAY.eccentricity_map(64, 64)
        center = ecc[32, 32]
        assert ecc[0, 0] > center
        assert ecc[63, 0] > center

    def test_symmetric_for_centered_gaze(self):
        ecc = QUEST2_DISPLAY.eccentricity_map(64, 64)
        assert np.allclose(ecc, ecc[::-1, :], atol=1e-9)
        assert np.allclose(ecc, ecc[:, ::-1], atol=1e-9)

    def test_corner_eccentricity_near_half_diagonal_fov(self):
        ecc = QUEST2_DISPLAY.eccentricity_map(256, 256)
        # 100x100 deg FoV: the corner ray is beyond 50 deg from center.
        assert ecc.max() > 50.0
        assert ecc.max() < 75.0

    def test_off_center_fixation_shifts_minimum(self):
        ecc = QUEST2_DISPLAY.eccentricity_map(64, 64, fixation=(0.25, 0.5))
        row, col = np.unravel_index(np.argmin(ecc), ecc.shape)
        assert col < 32

    def test_most_pixels_peripheral(self):
        """The paper's motivation: >90% of pixels beyond 20 deg."""
        ecc = QUEST2_DISPLAY.eccentricity_map(128, 128)
        assert np.mean(ecc > 20.0) > 0.9

    def test_rejects_out_of_frame_fixation(self):
        with pytest.raises(ValueError, match="fixation"):
            QUEST2_DISPLAY.eccentricity_map(8, 8, fixation=(1.5, 0.5))

    def test_rejects_empty_frame(self):
        with pytest.raises(ValueError, match="non-empty"):
            QUEST2_DISPLAY.eccentricity_map(0, 8)

    def test_narrow_fov_smaller_eccentricities(self):
        narrow = DisplayGeometry(fov_horizontal_deg=40, fov_vertical_deg=40)
        wide = DisplayGeometry(fov_horizontal_deg=110, fov_vertical_deg=110)
        assert (
            narrow.eccentricity_map(32, 32).max() < wide.eccentricity_map(32, 32).max()
        )


class TestMapCacheLifetime:
    """Regression: the cache must be per-instance, not class-level.

    The old ``@lru_cache`` on the method pinned every geometry forever
    and made all geometries share one 32-entry eviction budget.
    """

    def test_geometry_is_garbage_collected(self):
        import gc
        import weakref

        display = DisplayGeometry(fov_horizontal_deg=77.0)
        display.eccentricity_map(16, 16)  # populate the cache
        ref = weakref.ref(display)
        del display
        gc.collect()
        assert ref() is None

    def test_instances_do_not_share_eviction_budget(self):
        a = DisplayGeometry()
        b = DisplayGeometry(fov_horizontal_deg=90.0)
        first = a.eccentricity_map(16, 16)
        # Flood b's cache well past the per-instance limit; a's entry
        # must survive because budgets are independent.
        for i in range(40):
            b.eccentricity_map(16, 16, fixation=(i / 40.0, 0.5))
        assert a.eccentricity_map(16, 16) is first

    def test_per_instance_eviction_still_bounds_memory(self):
        display = DisplayGeometry()
        first = display.eccentricity_map(16, 16, fixation=(0.0, 0.5))
        for i in range(1, 40):
            display.eccentricity_map(16, 16, fixation=(i / 40.0, 0.5))
        # The oldest entry fell off this instance's 32-entry LRU.
        assert display.eccentricity_map(16, 16, fixation=(0.0, 0.5)) is not first

    def test_cached_maps_are_read_only(self):
        ecc = DisplayGeometry().eccentricity_map(12, 12)
        assert not ecc.flags.writeable

    def test_pickling_drops_cache(self):
        import pickle

        display = DisplayGeometry()
        display.eccentricity_map(16, 16)
        clone = pickle.loads(pickle.dumps(display))
        assert clone == display
        assert len(clone._map_cache) == 0
        assert np.array_equal(
            clone.eccentricity_map(16, 16), display.eccentricity_map(16, 16)
        )


class TestGeometryValidation:
    def test_rejects_bad_fov(self):
        with pytest.raises(ValueError, match="fov_horizontal_deg"):
            DisplayGeometry(fov_horizontal_deg=0)
        with pytest.raises(ValueError, match="fov_vertical_deg"):
            DisplayGeometry(fov_vertical_deg=180)


class TestQuestConstants:
    def test_resolutions(self):
        assert QUEST2_LOW_RESOLUTION == (2096, 4128)
        assert QUEST2_HIGH_RESOLUTION == (2736, 5408)

    def test_refresh_rates(self):
        assert QUEST2_REFRESH_RATES == (72, 80, 90, 120)
