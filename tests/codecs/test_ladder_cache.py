"""Tests for QualityLadder codec-instance caching and payload wiring."""

import numpy as np
import pytest

from repro.codecs import FrameContext, PerceptualCodec, get_codec
from repro.codecs.ladder import QualityLadder, QualityRung
from repro.core.pipeline import PerceptualEncoder
from repro.encoding.bd import BDCodec
from repro.encoding.bd_variable import VariableBDCodec


class TestLadderCodecCache:
    def test_repeated_builds_reuse_instances(self):
        ladder = QualityLadder.default()
        for index in range(len(ladder)):
            assert ladder.build_codec(index) is ladder.build_codec(index)

    def test_sweep_style_rebuilds_share_instances(self):
        """A multi-policy sweep building the rung codecs once per run
        must get the same instances every run."""
        ladder = QualityLadder.default()
        first = [ladder.build_codec(i) for i in range(len(ladder))]
        second = [ladder.build_codec(i) for i in range(len(ladder))]
        assert all(a is b for a, b in zip(first, second))

    def test_stateful_rungs_never_cached(self):
        ladder = QualityLadder(
            rungs=(QualityRung(name="temporal-bd", codec="temporal-bd", quality=0.9),)
        )
        assert ladder.build_codec(0) is not ladder.build_codec(0)

    def test_separate_ladders_have_separate_caches(self):
        a = QualityLadder.default()
        b = QualityLadder.default()
        assert a.build_codec(0) is not b.build_codec(0)


class TestRungBuild:
    def test_tiled_rungs_use_the_perceptual_tile_size(self):
        """Every rung of the default ladder tiles like the perceptual
        encoder, so its rungs price the same tile grid."""
        tile_size = PerceptualEncoder().tile_size
        checked = []
        for rung in QualityLadder.default():
            codec = rung.build()
            if isinstance(codec, PerceptualCodec):
                assert codec.encoder.tile_size == tile_size
            elif hasattr(codec, "tile_size"):
                assert codec.tile_size == tile_size
            else:
                continue
            checked.append(rung.codec)
        assert checked == ["bd", "variable-bd", "perceptual"]


class TestPayloadWiring:
    def test_bd_payload_decodes_to_context_frame(self, rng):
        frame = rng.integers(0, 256, (12, 20, 3), dtype=np.uint8)
        codec = get_codec("bd", tile_size=4, payload=True)
        encoded = codec.encode(FrameContext(srgb8=frame))
        payload = encoded.metadata["payload"]
        assert isinstance(payload, bytes)
        assert len(payload) == -(-encoded.total_bits // 8)
        decoder = BDCodec(tile_size=4)
        reference = decoder.encode(frame)
        assert payload == reference.data
        assert np.array_equal(decoder.decode(reference), frame)

    def test_variable_bd_payload_matches_bitstream_codec(self, rng):
        frame = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        codec = get_codec("variable-bd", tile_size=4, group_size=4, payload=True)
        encoded = codec.encode(FrameContext(srgb8=frame))
        reference = VariableBDCodec(tile_size=4, group_size=4).encode(frame)
        assert encoded.metadata["payload"] == reference.data
        assert len(encoded.metadata["payload"]) == -(-encoded.total_bits // 8)

    @pytest.mark.parametrize("name", ["bd", "variable-bd"])
    def test_payload_off_by_default(self, rng, name):
        frame = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        encoded = get_codec(name).encode(FrameContext(srgb8=frame))
        assert "payload" not in encoded.metadata
