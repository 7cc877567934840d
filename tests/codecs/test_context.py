"""Tests for the lazy FrameContext and the display-side map cache."""

import numpy as np
import pytest

from repro.codecs.context import FrameContext
from repro.codecs.wrappers import PerceptualCodec
from repro.color.srgb import encode_srgb8
from repro.scenes.display import QUEST2_DISPLAY, DisplayGeometry
from repro.scenes.library import render_scene


@pytest.fixture()
def frame():
    return render_scene("office", 24, 24)


class TestLazyDerivation:
    def test_srgb8_computed_once(self, frame):
        ctx = FrameContext(frame)
        assert ctx.stats["quantize"] == 0
        first = ctx.srgb8
        second = ctx.srgb8
        assert first is second
        assert ctx.stats["quantize"] == 1
        assert np.array_equal(first, encode_srgb8(frame))

    def test_tiles_cached_per_tile_size(self, frame):
        ctx = FrameContext(frame)
        tiles4a, grid4 = ctx.tiles(4)
        tiles4b, _ = ctx.tiles(4)
        tiles8, grid8 = ctx.tiles(8)
        assert tiles4a is tiles4b
        assert ctx.stats["tile"] == 2  # one pass per distinct tile size
        assert grid4.tile_size == 4 and grid8.tile_size == 8

    def test_eccentricity_derived_once_from_display(self, frame):
        ctx = FrameContext(frame)
        ecc = ctx.eccentricity
        assert ecc is ctx.eccentricity
        assert ctx.stats["eccentricity"] == 1
        assert ecc.shape == (24, 24)

    def test_provided_eccentricity_is_not_rederived(self, frame):
        given = np.full((24, 24), 30.0)
        ctx = FrameContext(frame, eccentricity=given)
        assert ctx.eccentricity is given
        assert ctx.stats["eccentricity"] == 0

    def test_scalar_eccentricity_broadcasts(self, frame):
        ctx = FrameContext(frame, eccentricity=25.0)
        assert ctx.eccentricity.shape == (24, 24)
        assert (ctx.eccentricity == 25.0).all()


class TestConstruction:
    def test_needs_some_frame(self):
        with pytest.raises(ValueError, match="frame_linear, srgb8"):
            FrameContext()

    def test_srgb8_only_context(self, frame):
        srgb = encode_srgb8(frame)
        ctx = FrameContext(srgb8=srgb)
        assert ctx.srgb8 is srgb
        assert ctx.stats["quantize"] == 0
        with pytest.raises(ValueError, match="linear"):
            _ = ctx.frame_linear

    def test_rejects_float_srgb(self, frame):
        with pytest.raises(TypeError, match="uint8"):
            FrameContext(srgb8=np.zeros((8, 8, 3)))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match=r"\(H, W, 3\)"):
            FrameContext(np.zeros((8, 8)))

    def test_rejects_mismatched_eccentricity(self, frame):
        with pytest.raises(ValueError, match="does not match"):
            FrameContext(frame, eccentricity=np.zeros((4, 4)))

    @pytest.mark.parametrize("scalar", [True, False])
    def test_rejects_nan_eccentricity(self, frame, scalar):
        """A NaN anywhere in the map is named at construction, not by the kernel."""
        ecc = np.full((24, 24), 12.0)
        ecc[5, 7] = np.nan
        with pytest.raises(ValueError, match="eccentricity map contains NaN"):
            FrameContext(frame, eccentricity=np.nan if scalar else ecc)

    def test_accepts_large_and_infinite_eccentricity(self, frame):
        """The law clips large finite and infinite eccentricities; only NaN fails."""
        ecc = np.full((24, 24), 1e300)
        ecc[0, 0] = np.inf
        result = PerceptualCodec().encode(FrameContext(frame, eccentricity=ecc))
        clipped = PerceptualCodec().encode(FrameContext(frame, eccentricity=60.0))
        assert result.total_bits == clipped.total_bits

    def test_geometry(self, frame):
        ctx = FrameContext(frame)
        assert (ctx.height, ctx.width, ctx.n_pixels) == (24, 24, 576)


class TestDisplayMapCache:
    def test_same_request_returns_cached_readonly_array(self):
        a = QUEST2_DISPLAY.eccentricity_map(40, 40)
        b = QUEST2_DISPLAY.eccentricity_map(40, 40)
        assert a is b
        assert not a.flags.writeable

    def test_distinct_fixations_distinct_maps(self):
        center = QUEST2_DISPLAY.eccentricity_map(16, 16)
        corner = QUEST2_DISPLAY.eccentricity_map(16, 16, fixation=(0.0, 0.0))
        assert not np.array_equal(center, corner)

    def test_equal_geometries_have_independent_caches(self):
        # Per-instance caches: equal geometries agree on values but do
        # not share storage, so no instance outlives its own cache.
        a = DisplayGeometry().eccentricity_map(20, 20)
        b = DisplayGeometry().eccentricity_map(20, 20)
        assert a is not b
        assert np.array_equal(a, b)

    def test_values_unchanged_by_caching(self):
        ecc = DisplayGeometry(
            fov_horizontal_deg=90.0, fov_vertical_deg=90.0
        ).eccentricity_map(9, 9)
        # Center pixel looks straight at the gaze point.
        assert ecc[4, 4] == pytest.approx(0.0, abs=1e-9)

    def test_huge_maps_bypass_cache(self):
        """Headset-resolution maps stay transient (no multi-GB pinning)."""
        display = DisplayGeometry()
        a = display.eccentricity_map(1100, 1100)  # ~9.7 MB > 8 MB limit
        b = display.eccentricity_map(1100, 1100)
        assert a is not b
        assert np.array_equal(a, b)
