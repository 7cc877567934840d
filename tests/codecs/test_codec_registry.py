"""Tests for the unified codec registry."""

import pytest

from repro import FrameResult
from repro.codecs.base import EncodedFrame
from repro.codecs.context import FrameContext
from repro.codecs.registry import (
    _ALIASES,
    _CODECS,
    available_codecs,
    get_codec,
    resolve_codec_name,
    streaming_codec_names,
)
from repro.experiments.fig10_bandwidth import BASELINE_NAMES
from repro.scenes.library import render_scene
from repro.streaming.session import ENCODER_CHOICES


@pytest.fixture(scope="module")
def scene_frame():
    return render_scene("office", 32, 32)


@pytest.fixture(scope="module")
def scene_ctx(scene_frame):
    return FrameContext(scene_frame)


@pytest.fixture(scope="module")
def encoded_by_name(scene_ctx):
    return {name: get_codec(name).encode(scene_ctx) for name in available_codecs()}


class TestRoster:
    def test_all_six_plus_codecs_registered(self):
        for name in ("nocom", "bd", "png", "scc", "perceptual", "variable-bd"):
            assert name in available_codecs()

    def test_every_codec_returns_encoded_frame(self, encoded_by_name):
        for name, result in encoded_by_name.items():
            assert isinstance(result, EncodedFrame), name
            assert result.codec == name
            assert result.total_bits > 0
            assert result.n_pixels == 32 * 32

    def test_monotone_sane_bits(self, encoded_by_name):
        """NoCom is the ceiling; the compressors all beat it."""
        nocom = encoded_by_name["nocom"].total_bits
        for name in ("png", "bd", "perceptual", "variable-bd"):
            assert 0 < encoded_by_name[name].total_bits < nocom, name

    def test_perceptual_beats_bd(self, encoded_by_name):
        assert (
            encoded_by_name["perceptual"].total_bits
            < encoded_by_name["bd"].total_bits
        )

    def test_perceptual_returns_frame_result(self, encoded_by_name):
        result = encoded_by_name["perceptual"]
        assert isinstance(result, FrameResult)
        assert result.reconstruction is result.adjusted_srgb
        assert result.breakdown.total_bits == result.total_bits


class TestLookup:
    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown codec"):
            get_codec("h265")

    def test_raw_alias_resolves_to_nocom(self):
        assert resolve_codec_name("raw") == "nocom"
        assert get_codec("raw").name == "nocom"

    def test_case_insensitive(self):
        assert resolve_codec_name("NoCom") == "nocom"
        assert resolve_codec_name("PNG") == "png"

    def test_table_keys_are_distinct_lowercase_names(self):
        keys = list(_CODECS) + list(_ALIASES)
        assert len(set(keys)) == len(keys)
        assert all(key == key.lower() for key in keys)
        for name, cls in _CODECS.items():
            assert cls.name == name
        assert set(_ALIASES.values()) <= set(_CODECS)
        for name in streaming_codec_names():
            assert resolve_codec_name(name) in _CODECS


class TestKwargRouting:
    """Per-codec kwargs are routed explicitly, never silently dropped."""

    def test_codec_kwargs_forwarded(self, scene_ctx):
        small = get_codec("bd", tile_size=4).encode(scene_ctx)
        large = get_codec("bd", tile_size=16).encode(scene_ctx)
        assert small.total_bits != large.total_bits

    def test_unknown_kwarg_rejected_with_codec_name(self):
        with pytest.raises(TypeError, match="png"):
            get_codec("png", tile_size=4)
        with pytest.raises(TypeError, match="nocom"):
            get_codec("nocom", level=3)


class TestShimSync:
    """The experiment and streaming rosters stay in sync with the registry."""

    def test_baseline_names_resolve_to_registered_codecs(self):
        resolved = {resolve_codec_name(name) for name in BASELINE_NAMES}
        assert resolved <= set(available_codecs())
        assert resolved == {"nocom", "scc", "bd", "png"}

    def test_encoder_choices_are_the_streaming_roster(self):
        assert ENCODER_CHOICES == streaming_codec_names()
        for name in ENCODER_CHOICES:
            # Every streaming choice resolves to a registered codec.
            assert resolve_codec_name(name) in available_codecs()
