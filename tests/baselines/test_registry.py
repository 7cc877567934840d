"""The Fig. 10 baseline roster, costed through the codec registry."""

import numpy as np
import pytest

from repro.codecs.context import FrameContext
from repro.codecs.registry import get_codec
from repro.color.srgb import encode_srgb8
from repro.experiments.fig10_bandwidth import BASELINE_NAMES
from repro.scenes.library import render_scene


def frame_bits(name, frame_srgb8, **codec_kwargs):
    ctx = FrameContext(srgb8=frame_srgb8)
    return get_codec(name, **codec_kwargs).encode(ctx).total_bits


@pytest.fixture(scope="module")
def scene_srgb():
    return encode_srgb8(render_scene("office", 32, 32))


class TestDispatch:
    def test_all_names_dispatch(self, scene_srgb):
        for name in BASELINE_NAMES:
            assert frame_bits(name, scene_srgb) > 0

    def test_unknown_name(self, scene_srgb):
        with pytest.raises(KeyError, match="unknown codec"):
            frame_bits("JPEG", scene_srgb)

    def test_rejects_float_frames(self):
        with pytest.raises(TypeError, match="uint8"):
            frame_bits("BD", np.zeros((8, 8, 3)))


class TestValues:
    def test_nocom_is_24_bpp(self, scene_srgb):
        assert frame_bits("NoCom", scene_srgb) == 24 * 32 * 32

    def test_scc_constant_per_pixel(self, scene_srgb):
        bits = frame_bits("SCC", scene_srgb)
        assert bits % (32 * 32) == 0

    def test_bd_beats_nocom_on_scene(self, scene_srgb):
        assert frame_bits("BD", scene_srgb) < frame_bits("NoCom", scene_srgb)

    def test_expected_ordering_on_scene(self, scene_srgb):
        """The paper's Fig. 10 ordering on natural content."""
        values = {name: frame_bits(name, scene_srgb) for name in BASELINE_NAMES}
        assert values["BD"] < values["SCC"] < values["NoCom"]

    def test_bd_tile_size_parameter(self, scene_srgb):
        small = frame_bits("BD", scene_srgb, tile_size=4)
        large = frame_bits("BD", scene_srgb, tile_size=16)
        assert small != large

    def test_pixel_count_validation(self):
        with pytest.raises(ValueError, match=r"\(H, W, 3\)"):
            frame_bits("NoCom", np.zeros((8, 8), dtype=np.uint8))
