"""Tests for the temporal BD extension."""

import numpy as np
import pytest

from repro.codecs.context import FrameContext
from repro.codecs.registry import get_codec
from repro.encoding.bd import bd_breakdown
from repro.encoding.bd_temporal import TemporalBDAccountant, temporal_delta_widths
from repro.scenes.library import render_scene


def _tiles(rng, n=20, value_range=(0, 256)):
    return rng.integers(*value_range, (n, 16, 3), dtype=np.uint8)


class TestTemporalWidths:
    def test_identical_frames_zero_bits(self, rng):
        tiles = _tiles(rng)
        assert temporal_delta_widths(tiles, tiles.copy()).sum() == 0

    def test_small_change_small_width(self, rng):
        tiles = _tiles(rng, value_range=(10, 240))
        moved = (tiles.astype(np.int16) + 1).astype(np.uint8)
        widths = temporal_delta_widths(moved, tiles)
        assert widths.max() == 2  # |delta|=1 -> 1 magnitude bit + sign

    def test_sign_bit_included(self):
        current = np.full((1, 4, 3), 100, dtype=np.uint8)
        previous = np.full((1, 4, 3), 103, dtype=np.uint8)
        # |delta| = 3 -> 2 magnitude bits + 1 sign = 3.
        assert temporal_delta_widths(current, previous)[0, 0] == 3

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="must match"):
            temporal_delta_widths(_tiles(rng, 4), _tiles(rng, 5))

    def test_dtype_enforced(self):
        with pytest.raises(TypeError, match="uint8"):
            temporal_delta_widths(np.zeros((1, 4, 3)), np.zeros((1, 4, 3)))


class TestAccountant:
    def test_first_frame_is_spatial(self, rng):
        tiles = _tiles(rng)
        accountant = TemporalBDAccountant()
        breakdown = accountant.push(tiles)
        spatial = bd_breakdown(tiles)
        # Same deltas and bases as spatial BD; only the mode bits are extra.
        assert breakdown.delta_bits == spatial.delta_bits
        assert breakdown.base_bits == spatial.base_bits
        assert breakdown.metadata_bits == spatial.metadata_bits + 20 * 3

    def test_static_stream_collapses(self, rng):
        tiles = _tiles(rng)
        accountant = TemporalBDAccountant()
        first = accountant.push(tiles)
        second = accountant.push(tiles.copy())
        assert second.delta_bits == 0
        assert second.base_bits == 0  # all tiles temporal
        assert second.total_bits < first.total_bits / 4

    def test_slowly_changing_stream_beats_spatial(self, rng):
        base = _tiles(rng, value_range=(20, 230))
        accountant = TemporalBDAccountant()
        accountant.push(base)
        drifted = (base.astype(np.int16) + rng.integers(-2, 3, base.shape)).clip(0, 255).astype(np.uint8)
        temporal = accountant.push(drifted)
        spatial = bd_breakdown(drifted)
        assert temporal.total_bits < spatial.total_bits

    def test_scene_cut_falls_back_to_spatial(self, rng):
        accountant = TemporalBDAccountant()
        accountant.push(_tiles(rng))
        unrelated = _tiles(np.random.default_rng(99))
        cut = accountant.push(unrelated)
        spatial = bd_breakdown(unrelated)
        # Mode choice per tile-channel can only improve on spatial.
        assert cut.delta_bits <= spatial.delta_bits

    def test_reset_forgets_history(self, rng):
        tiles = _tiles(rng)
        accountant = TemporalBDAccountant()
        accountant.push(tiles)
        accountant.reset()
        breakdown = accountant.push(tiles.copy())
        assert breakdown.base_bits == bd_breakdown(tiles).base_bits  # spatial again

    def test_tile_size_change_rejected(self, rng):
        accountant = TemporalBDAccountant()
        accountant.push(_tiles(rng))
        with pytest.raises(ValueError, match="tile size changed"):
            accountant.push(rng.integers(0, 256, (20, 64, 3), dtype=np.uint8))

    def test_resolution_change_is_coded_spatially(self, rng):
        accountant = TemporalBDAccountant()
        accountant.push(_tiles(rng, 4))
        larger = _tiles(rng, 16)
        assert accountant.push(larger) == TemporalBDAccountant().push(larger)

    def test_registered_codec_survives_resolution_change(self):
        small = FrameContext(render_scene("office", 8, 8))
        large = FrameContext(render_scene("office", 16, 16))
        codec = get_codec("temporal-bd")
        codec.reset()
        codec.encode(small)
        fresh = get_codec("temporal-bd")
        fresh.reset()
        assert codec.encode(large).breakdown == fresh.encode(large).breakdown

    def test_mode_choice_never_worse_than_spatial_deltas(self, rng):
        """Per-channel argmin guarantees delta bits <= spatial's."""
        accountant = TemporalBDAccountant()
        previous = _tiles(rng)
        accountant.push(previous)
        for _ in range(3):
            frame = (previous.astype(np.int16) + rng.integers(-30, 31, previous.shape)).clip(0, 255).astype(np.uint8)
            breakdown = accountant.push(frame)
            assert breakdown.delta_bits <= bd_breakdown(frame).delta_bits
            previous = frame

    def test_animated_scene_stream(self):
        """End to end with the scene generator and the perceptual
        encoder: temporal mode helps on an animated sequence."""
        from repro import FrameContext, PerceptualCodec
        from repro.encoding.tiling import tile_frame
        from repro.scenes.display import QUEST2_DISPLAY
        from repro.scenes.library import get_scene

        scene = get_scene("office")
        ecc = QUEST2_DISPLAY.eccentricity_map(64, 64)
        encoder = PerceptualCodec()
        accountant = TemporalBDAccountant()
        spatial_total = 0
        temporal_total = 0
        for index in range(3):
            frame = scene.render(64, 64, frame=index, eye="left")
            adjusted = encoder.encode(FrameContext(frame, eccentricity=ecc)).adjusted_srgb
            tiles, grid = tile_frame(adjusted, 4)
            spatial_total += bd_breakdown(tiles, n_pixels=64 * 64).total_bits
            temporal_total += accountant.push(tiles, n_pixels=64 * 64).total_bits
        assert temporal_total < spatial_total
