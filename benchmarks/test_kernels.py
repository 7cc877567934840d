"""Microbenchmarks of the hot kernels (statistical timing).

Unlike the figure benchmarks (which run an experiment once), these use
pytest-benchmark's default repeated sampling to characterize the
per-call cost of the building blocks: extrema computation, tile
adjustment, BD accounting, the full frame pipeline, and the bitstream
codec.  They are the numbers to watch when optimizing the library.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import FrameContext, PerceptualCodec
from repro.baselines.png_codec import png_encode, png_filter_rows, png_unfilter_rows
from repro.color.srgb import encode_srgb8
from repro.core.adjust import adjust_tiles
from repro.core.optimizer import optimize_tiles
from repro.encoding.bd import BDCodec, bd_breakdown
from repro.encoding.bd_variable import VariableBDCodec
from repro.encoding.packing import (
    bits_to_bytes,
    bytes_to_bits,
    pack_fields,
    pack_segments,
    unpack_fields,
)
from repro.perception.geometry import channel_extrema
from repro.perception.model import ParametricModel
from repro.scenes.display import QUEST2_DISPLAY
from repro.scenes.library import render_scene

# The per-field reference BD paths live with the codec tests.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "encoding"))
from bd_reference import (  # noqa: E402
    decode_legacy,
    decode_variable_legacy,
    encode_legacy,
    encode_variable_legacy,
)

N_TILES = 4096  # one megapixel-quarter of 4x4 tiles
#: Field count of the pack/unpack microbenchmarks — one 192x192 frame's
#: worth of 4x4-tile deltas (192*192 pixels x 3 channels).
N_FIELDS = 192 * 192 * 3


@pytest.fixture(scope="module")
def tile_stack():
    rng = np.random.default_rng(0)
    model = ParametricModel()
    tiles = rng.uniform(0.2, 0.8, (N_TILES, 16, 3))
    axes = model.semi_axes(tiles, np.full((N_TILES, 16), 25.0))
    return tiles, axes


@pytest.fixture(scope="module")
def scene_frame():
    frame = render_scene("office", 192, 192, eye="left")
    ecc = QUEST2_DISPLAY.eccentricity_map(192, 192)
    return frame, ecc


def test_kernel_channel_extrema(benchmark, tile_stack):
    tiles, axes = tile_stack
    result = benchmark(channel_extrema, tiles, axes, 2)
    assert result.high.shape == tiles.shape


def test_kernel_adjust_tiles(benchmark, tile_stack):
    tiles, axes = tile_stack
    result = benchmark(adjust_tiles, tiles, axes, 2)
    assert result.adjusted.shape == tiles.shape


def test_kernel_optimize_tiles(benchmark, tile_stack):
    tiles, axes = tile_stack
    result = benchmark(optimize_tiles, tiles, axes)
    assert result.bits.shape == (N_TILES,)


def test_kernel_bd_accounting(benchmark, tile_stack):
    tiles, _ = tile_stack
    srgb = encode_srgb8(tiles)
    breakdown = benchmark(bd_breakdown, srgb)
    assert breakdown.total_bits > 0


def test_kernel_full_frame_encode(benchmark, scene_frame):
    frame, ecc = scene_frame
    codec = PerceptualCodec()

    def encode():
        # A fresh context per call: its cached sRGB tiles must not be reused.
        return codec.encode(FrameContext(frame, eccentricity=ecc))

    result = benchmark(encode)
    assert result.bandwidth_reduction_vs_bd > 0


def test_kernel_scene_render(benchmark):
    frame = benchmark(render_scene, "thai", 192, 192)
    assert frame.shape == (192, 192, 3)


def test_kernel_bd_bitstream_roundtrip(benchmark):
    rng = np.random.default_rng(1)
    frame = rng.integers(0, 256, (48, 48, 3), dtype=np.uint8)
    codec = BDCodec(tile_size=4)

    def round_trip():
        return codec.decode(codec.encode(frame))

    decoded = benchmark(round_trip)
    assert np.array_equal(decoded, frame)


# --- packing kernels (PR 5) ------------------------------------------------
#
# One frame's worth of equal-width fields through the bit-plane kernels,
# plus the full bitstream codecs at the 192x192 evaluation point — both
# the vectorized path and the retained per-field legacy path, so the
# benchmark JSON records the speedup explicitly.


@pytest.fixture(scope="module")
def delta_fields():
    rng = np.random.default_rng(2)
    return rng.integers(0, 16, N_FIELDS)


@pytest.fixture(scope="module")
def eval_frame():
    return encode_srgb8(render_scene("office", 192, 192, eye="left"))


def test_kernel_pack_fields(benchmark, delta_fields):
    bits = benchmark(pack_fields, delta_fields, 4)
    assert bits.size == N_FIELDS * 4


def test_kernel_unpack_fields(benchmark, delta_fields):
    bits = bytes_to_bits(bits_to_bytes(pack_fields(delta_fields, 4)))
    values = benchmark(unpack_fields, bits, 0, N_FIELDS, 4)
    assert np.array_equal(values, delta_fields)


def test_kernel_pack_segments(benchmark, delta_fields):
    # Alternating-width segments: the variable-width descriptor path.
    n_segments = 1024
    per_segment = N_FIELDS // n_segments
    widths = np.where(np.arange(n_segments) % 2 == 0, 4, 7)
    counts = np.full(n_segments, per_segment)
    bits = benchmark(pack_segments, delta_fields[: n_segments * per_segment], widths, counts)
    assert bits.size == int((widths * counts).sum())


def test_kernel_bd_encode_192(benchmark, eval_frame):
    codec = BDCodec(tile_size=4)
    encoded = benchmark(codec.encode, eval_frame)
    assert encoded.breakdown.total_bits > 0


def test_kernel_bd_decode_192(benchmark, eval_frame):
    codec = BDCodec(tile_size=4)
    encoded = codec.encode(eval_frame)
    decoded = benchmark(codec.decode, encoded)
    assert np.array_equal(decoded, eval_frame)


@pytest.mark.slow
def test_kernel_bd_encode_legacy_192(benchmark, eval_frame):
    codec = BDCodec(tile_size=4)
    encoded = benchmark(encode_legacy, codec, eval_frame)
    assert encoded.breakdown.total_bits > 0


@pytest.mark.slow
def test_kernel_bd_decode_legacy_192(benchmark, eval_frame):
    codec = BDCodec(tile_size=4)
    encoded = codec.encode(eval_frame)
    decoded = benchmark(decode_legacy, encoded)
    assert np.array_equal(decoded, eval_frame)


def test_kernel_variable_bd_roundtrip_192(benchmark, eval_frame):
    codec = VariableBDCodec(tile_size=4, group_size=4)

    def round_trip():
        return codec.decode(codec.encode(eval_frame))

    assert np.array_equal(benchmark(round_trip), eval_frame)


@pytest.mark.slow
def test_kernel_variable_bd_roundtrip_legacy_192(benchmark, eval_frame):
    codec = VariableBDCodec(tile_size=4, group_size=4)

    def round_trip():
        return decode_variable_legacy(encode_variable_legacy(codec, eval_frame))

    assert np.array_equal(benchmark(round_trip), eval_frame)


def test_kernel_png_filter_rows_192(benchmark, eval_frame):
    filter_ids, filtered = benchmark(png_filter_rows, eval_frame)
    assert filter_ids.shape == (192,)


def test_kernel_png_unfilter_rows_192(benchmark, eval_frame):
    filter_ids, filtered = png_filter_rows(eval_frame)
    decoded = benchmark(png_unfilter_rows, filter_ids, filtered, eval_frame.shape)
    assert np.array_equal(decoded, eval_frame)


def test_kernel_png_encode_192(benchmark, eval_frame):
    encoded = benchmark(png_encode, eval_frame)
    assert encoded.total_bits > 0


@pytest.mark.slow
def test_bd_vectorized_speedup_vs_legacy(eval_frame):
    """The PR 5 acceptance gate: >= 10x on encode+decode at 192x192.

    Best-of-N wall timing (not pytest-benchmark) so the ratio is a
    plain assertion the suite enforces, robust to machine speed.
    """

    def best_of(fn, repeats):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    codec = BDCodec(tile_size=4)
    encoded = codec.encode(eval_frame)
    vectorized = best_of(lambda: codec.decode(codec.encode(eval_frame)), 10)
    legacy = best_of(
        lambda: decode_legacy(encode_legacy(codec, eval_frame)), 3
    )
    assert np.array_equal(codec.decode(encoded), eval_frame)
    speedup = legacy / vectorized
    assert speedup >= 10.0, f"vectorized BD speedup regressed to {speedup:.1f}x"
