"""Tests for QualityLadder codec-instance caching and payload wiring."""

import numpy as np
import pytest

from repro.codecs.context import FrameContext
from repro.codecs.registry import get_codec
from repro.codecs.wrappers import PerceptualCodec
from repro.codecs.ladder import QualityLadder, QualityRung
from repro.encoding import bd as bd_module
from repro.encoding import bd_variable as bd_variable_module
from repro.encoding.bd import BDCodec, bd_breakdown, bd_stream_bytes
from repro.encoding.bd_variable import (
    VariableBDCodec,
    variable_bd_breakdown,
    variable_bd_stream_bytes,
)


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
        tile_size = PerceptualCodec().tile_size
        checked = []
        for rung in QualityLadder.default():
            codec = rung.build()
            if not hasattr(codec, "tile_size"):
                continue
            assert codec.tile_size == tile_size
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
    def test_payload_encode_plans_the_tiles_once(self, rng, monkeypatch, name):
        """The stream and its breakdown come from one plan (tile minima and
        group maxima), whichever module's ``_plan`` a path reaches."""
        calls = []
        plan = bd_module._plan

        def counting_plan(*args):
            calls.append(args)
            return plan(*args)

        monkeypatch.setattr(bd_module, "_plan", counting_plan)
        monkeypatch.setattr(bd_variable_module, "_plan", counting_plan)
        frame = rng.integers(0, 256, (16, 12, 3), dtype=np.uint8)
        get_codec(name, payload=True).encode(FrameContext(srgb8=frame))
        assert len(calls) == 1

    @pytest.mark.parametrize("shape", [(8, 8), (13, 21), (40, 17)])
    @pytest.mark.parametrize("tile_size,group_size", [(1, 1), (2, 2), (3, 3), (4, 8), (8, 16)])
    def test_payload_and_breakdown_equal_the_standalone_calls(
        self, shape, tile_size, group_size
    ):
        rng = np.random.default_rng(sum(shape) * 10 + tile_size)
        # Narrow value ranges keep the delta widths small and varied.
        frame = np.minimum(rng.integers(0, 256, 3) + rng.integers(0, 12, (*shape, 3)), 255)
        ctx = FrameContext(srgb8=frame.astype(np.uint8))
        tiles, grid = ctx.tiles(tile_size)

        bd = get_codec("bd", tile_size=tile_size, payload=True).encode(ctx)
        assert bd.metadata["payload"] == bd_stream_bytes(tiles, grid)
        assert bd.breakdown == bd_breakdown(tiles, n_pixels=ctx.n_pixels)

        variable = get_codec(
            "variable-bd", tile_size=tile_size, group_size=group_size, payload=True
        ).encode(ctx)
        assert variable.metadata["payload"] == variable_bd_stream_bytes(tiles, grid, group_size)
        assert variable.breakdown == variable_bd_breakdown(
            tiles, group_size, n_pixels=ctx.n_pixels
        )

    @pytest.mark.parametrize("name", ["bd", "variable-bd"])
    def test_payload_off_by_default(self, rng, name):
        frame = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        encoded = get_codec(name).encode(FrameContext(srgb8=frame))
        assert "payload" not in encoded.metadata
