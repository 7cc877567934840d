"""Tests for the foveated-resolution comparator (paper Sec. 7)."""

import numpy as np
import pytest

from repro.baselines.foveated import FoveationConfig, foveated_bd_bits
from repro.codecs.context import FrameContext
from repro.codecs.registry import get_codec
from repro.codecs.wrappers import PerceptualCodec
from repro.color.srgb import encode_srgb8
from repro.scenes.display import QUEST2_DISPLAY
from repro.scenes.library import render_scene


def plain_bd_bits(frame, tile_size=4):
    codec = get_codec("bd", tile_size=tile_size)
    return codec.encode(FrameContext(srgb8=encode_srgb8(frame))).total_bits


@pytest.fixture(scope="module")
def setup():
    frame = render_scene("skyline", 96, 96)
    ecc = QUEST2_DISPLAY.eccentricity_map(96, 96)
    return frame, ecc


class TestFoveatedBits:
    def test_cheaper_than_plain_bd(self, setup):
        frame, ecc = setup
        plain = plain_bd_bits(frame)
        foveated = foveated_bd_bits(frame, ecc)
        assert foveated < plain / 2

    def test_all_foveal_matches_plain_bd(self, setup):
        frame, ecc = setup
        config = FoveationConfig(half_rate_deg=1e6, quarter_rate_deg=1e6)
        assert foveated_bd_bits(frame, ecc, config) == plain_bd_bits(frame)

    def test_codec_prices_every_layer(self, setup):
        frame, ecc = setup
        config = FoveationConfig(half_rate_deg=1e6, quarter_rate_deg=1e6)
        bd8 = get_codec("bd", tile_size=8)
        assert foveated_bd_bits(frame, ecc, config, codec=bd8) == plain_bd_bits(frame, 8)

    def test_wider_fovea_costs_more(self, setup):
        frame, ecc = setup
        narrow = foveated_bd_bits(frame, ecc, FoveationConfig(10.0, 25.0))
        wide = foveated_bd_bits(frame, ecc, FoveationConfig(35.0, 50.0))
        assert narrow < wide

    def test_composition_with_perceptual_encoder(self, setup):
        frame, ecc = setup
        plain = foveated_bd_bits(frame, ecc)
        composed = foveated_bd_bits(frame, ecc, codec=PerceptualCodec())
        assert composed < plain

    def test_shape_validation(self, setup):
        frame, _ = setup
        with pytest.raises(ValueError, match="does not match"):
            foveated_bd_bits(frame, np.zeros((4, 4)))


class TestConfigValidation:
    def test_rejects_inverted_rings(self):
        with pytest.raises(ValueError, match="quarter_rate_deg"):
            FoveationConfig(half_rate_deg=30.0, quarter_rate_deg=20.0)

    def test_rejects_negative_thresholds(self):
        with pytest.raises(ValueError, match="non-negative"):
            FoveationConfig(half_rate_deg=-1.0)
